//! Web application and plugin model.
//!
//! A [`WebApp`] is a set of PHP-subset source files: framework ("core")
//! files that contribute vocabulary fragments but are not routable, plus
//! [`Plugin`]s routed by slug. The paper's installer "recursively parses
//! all source code files reachable from the top directory" (§IV-A) —
//! [`WebApp::all_sources`] is that reachable set.

use crate::transform::TransformPipeline;
use joza_phpsim::ast::Stmt;
use joza_phpsim::compile::{compile, Chunk};
use joza_phpsim::parser::{parse_program_spanned, PhpParseError};
use joza_phpsim::span::Span;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A plugin: routable PHP-subset source with metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Plugin {
    /// Route slug and display name.
    pub name: String,
    /// Version string (testbed metadata).
    pub version: String,
    /// PHP-subset source text. This single text is both fragment-extraction
    /// input and the code the interpreter runs — the property PTI's
    /// soundness rests on.
    pub source: String,
    /// Input transformations this plugin applies *in addition to* the
    /// framework pipeline (e.g. a plugin that base64-decodes a parameter
    /// does so in its own source; this field is for declarative extras).
    pub extra_transforms: TransformPipeline,
    /// Simulated page-render cost ([`crate::cost`]): theme/template work a
    /// real WordPress route performs that the PHP-subset interpreter does
    /// not. Zero (the default) disables the model; the benchmark harness
    /// sets route-calibrated values (see `DESIGN.md` substitutions).
    pub render_cost: Duration,
}

impl Plugin {
    /// Creates a plugin with no extra transforms and no render cost.
    pub fn new(name: &str, version: &str, source: &str) -> Self {
        Plugin {
            name: name.to_string(),
            version: version.to_string(),
            source: source.to_string(),
            extra_transforms: TransformPipeline::new(),
            render_cost: Duration::ZERO,
        }
    }
}

/// One route's parse, shared by every static pass and both engines: the
/// program and its statement span table (`spans[id]` is the source range
/// of statement `id` in preorder, as [`parse_program_spanned`] builds it).
#[derive(Debug, Clone)]
pub struct ParsedRoute {
    /// The parsed program, shared by reference with the tree-walk serving
    /// path so no request clones a statement list.
    pub program: Arc<Vec<Stmt>>,
    /// Per-statement byte spans into the route's source, in preorder.
    pub spans: Vec<Span>,
}

/// A registered plugin and the artifacts derived from its source, each
/// built on first use through `&self`. The artifacts live and die with
/// the entry: every path that can change the source replaces or clears
/// them, so they always describe [`Plugin::source`].
#[derive(Debug, Clone)]
struct Route {
    plugin: Plugin,
    /// The route's parse (or its parse error), built once.
    parsed: OnceLock<Result<ParsedRoute, PhpParseError>>,
    /// The bytecode chunk for the VM engine, compiled once from `parsed`.
    compiled: OnceLock<Arc<Chunk>>,
}

impl Route {
    fn new(plugin: Plugin) -> Self {
        Route { plugin, parsed: OnceLock::new(), compiled: OnceLock::new() }
    }

    fn parsed(&self) -> Result<&ParsedRoute, PhpParseError> {
        self.parsed
            .get_or_init(|| {
                let (program, spans) = parse_program_spanned(&self.plugin.source)?;
                Ok(ParsedRoute { program: Arc::new(program), spans })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// A web application: core sources + plugins + framework input pipeline.
///
/// Core sources are shared, immutable text: cloning an application (one
/// per deployment or worker) copies a pointer per core file, not the
/// files. A WordPress-scale core is megabytes of source.
///
/// Each route is parsed at most once per application value: the static
/// passes and the tree-walk engine read [`WebApp::parsed`], and
/// [`WebApp::chunk`] compiles from the same parse. A clone carries the parses and chunks already built, as it
/// carries the sources; nothing is shared between values or keyed by
/// source text.
#[derive(Debug, Clone, Default)]
pub struct WebApp {
    /// Application name.
    pub name: String,
    /// Non-routable framework sources (WordPress core files), shared by
    /// every clone.
    core_sources: Vec<Arc<str>>,
    /// Plugins by slug, each with its parse and compile cache.
    routes: HashMap<String, Route>,
    /// Framework-level input transformation pipeline, applied to every
    /// request input before plugin code runs (WordPress: magic quotes).
    pub input_pipeline: TransformPipeline,
}

impl WebApp {
    /// Creates an empty application with a pass-through input pipeline.
    pub fn new(name: &str) -> Self {
        WebApp { name: name.to_string(), ..Default::default() }
    }

    /// Creates an application with the WordPress input pipeline
    /// (magic quotes on every input).
    pub fn wordpress_style(name: &str) -> Self {
        WebApp {
            name: name.to_string(),
            input_pipeline: TransformPipeline::wordpress(),
            ..Default::default()
        }
    }

    /// Adds a non-routable core source file (contributes fragments only).
    pub fn add_core_source(&mut self, source: &str) {
        self.core_sources.push(Arc::from(source));
    }

    /// Registers a plugin under its name, replacing any plugin (and its
    /// cached parse and chunk) already routed there.
    pub fn add_plugin(&mut self, plugin: Plugin) {
        self.routes.insert(plugin.name.clone(), Route::new(plugin));
    }

    /// Looks up a plugin by slug.
    pub fn plugin(&self, slug: &str) -> Option<&Plugin> {
        self.routes.get(slug).map(|r| &r.plugin)
    }

    /// Mutable plugin lookup (used by the benchmark harness to assign
    /// calibrated render costs). Clears the route's parse and chunk, since
    /// the caller may rewrite [`Plugin::source`].
    pub fn plugin_mut(&mut self, slug: &str) -> Option<&mut Plugin> {
        self.routes.get_mut(slug).map(|r| {
            r.parsed.take();
            r.compiled.take();
            &mut r.plugin
        })
    }

    /// Iterates plugins in arbitrary order.
    pub fn plugins(&self) -> impl Iterator<Item = &Plugin> {
        self.routes.values().map(|r| &r.plugin)
    }

    /// Replaces a plugin's source text, invalidating its parse- and
    /// compile-cache entries (a stale cached program or chunk would
    /// silently keep serving the old code). Returns false when no such
    /// plugin exists.
    pub fn set_plugin_source(&mut self, slug: &str, source: &str) -> bool {
        match self.plugin_mut(slug) {
            Some(p) => {
                p.source = source.to_string();
                true
            }
            None => false,
        }
    }

    /// Number of registered plugins.
    pub fn plugin_count(&self) -> usize {
        self.routes.len()
    }

    /// Every source file reachable from the top directory: core sources
    /// then plugin sources. This is the installer's fragment-extraction
    /// input (§IV-A).
    pub fn all_sources(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.core_sources.iter().map(|s| &**s).collect();
        let mut slugs: Vec<&String> = self.routes.keys().collect();
        slugs.sort();
        for slug in slugs {
            out.push(&self.routes[slug].plugin.source);
        }
        out
    }

    fn route(&self, slug: &str) -> Result<&Route, PhpParseError> {
        self.routes
            .get(slug)
            .ok_or_else(|| PhpParseError { at: 0, message: format!("no route {slug}") })
    }

    /// The route's program and statement spans, parsed on first use and
    /// cached for the life of this value.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source (cached like a
    /// parse), or reports a missing route.
    pub fn parsed(&self, slug: &str) -> Result<&ParsedRoute, PhpParseError> {
        self.route(slug)?.parsed()
    }

    /// The route's parsed program ([`WebApp::parsed`] without the spans).
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn program(&self, slug: &str) -> Result<&[Stmt], PhpParseError> {
        Ok(&self.parsed(slug)?.program)
    }

    /// Like [`WebApp::program`], but hands back the shared [`Arc`] so the
    /// tree-walk serving path can run the program without cloning the
    /// statement list per request.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn program_arc(&self, slug: &str) -> Result<Arc<Vec<Stmt>>, PhpParseError> {
        Ok(Arc::clone(&self.parsed(slug)?.program))
    }

    /// Compiles (and caches) the bytecode chunk for a route — the VM
    /// engine's per-route artifact, built once from the cached parse and
    /// served by [`Arc`]. Compilation itself is total; only parsing can
    /// fail. The cache fills through a shared reference; the method keeps
    /// the `&mut self` receiver its serving and deployment callers hold.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn chunk(&mut self, slug: &str) -> Result<Arc<Chunk>, PhpParseError> {
        let route = self.route(slug)?;
        if let Some(chunk) = route.compiled.get() {
            return Ok(Arc::clone(chunk));
        }
        let parsed = route.parsed()?;
        Ok(Arc::clone(route.compiled.get_or_init(|| Arc::new(compile(&parsed.program)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plugin_registry() {
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("a", "1.0", "$x = 1;"));
        app.add_plugin(Plugin::new("b", "2.0", "$y = 2;"));
        assert_eq!(app.plugin_count(), 2);
        assert!(app.plugin("a").is_some());
        assert!(app.plugin("z").is_none());
    }

    #[test]
    fn all_sources_includes_core_and_plugins() {
        let mut app = WebApp::new("t");
        app.add_core_source("$core = 'SELECT';");
        app.add_plugin(Plugin::new("a", "1.0", "$x = 1;"));
        let sources = app.all_sources();
        assert_eq!(sources.len(), 2);
        assert!(sources[0].contains("core"));
    }

    #[test]
    fn program_cache_and_errors() {
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("ok", "1", "$x = 1;"));
        app.add_plugin(Plugin::new("bad", "1", "$x = ;"));
        assert_eq!(app.program("ok").unwrap().len(), 1);
        assert!(app.program("bad").is_err());
        assert!(app.program("missing").is_err());
        // Cached second call.
        assert_eq!(app.program("ok").unwrap().len(), 1);
    }

    #[test]
    fn one_parse_per_route_for_every_reader() {
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("a", "1", "$x = 1; echo $x;"));
        app.add_plugin(Plugin::new("bad", "1", "$x = ;"));
        let before = joza_phpsim::parser::parse_count();
        assert_eq!(app.parsed("a").unwrap().spans.len(), 2);
        assert_eq!(app.program("a").unwrap().len(), 2);
        let arc = app.program_arc("a").unwrap();
        app.chunk("a").unwrap();
        assert!(Arc::ptr_eq(&arc, &app.parsed("a").unwrap().program));
        assert!(app.chunk("bad").is_err());
        assert!(app.parsed("bad").is_err());
        assert_eq!(joza_phpsim::parser::parse_count() - before, 2, "one parse per route");
        // A clone carries the parses it was made with.
        let clone = app.clone();
        assert_eq!(clone.program("a").unwrap().len(), 2);
        assert_eq!(joza_phpsim::parser::parse_count() - before, 2);
    }

    /// Serves `slug` with no input on both engines and returns the bodies.
    fn serve_both(app: &WebApp, slug: &str) -> [String; 2] {
        use crate::request::HttpRequest;
        use crate::server::{Engine, Server};
        [Engine::Vm, Engine::TreeWalk].map(|engine| {
            let mut server = Server::new(app.clone(), joza_db::Database::new()).with_engine(engine);
            server.handle(&HttpRequest::get(slug)).body
        })
    }

    #[test]
    fn stale_route_code_re_adding_a_plugin_replaces_its_parse_and_chunk() {
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("a", "1", "echo 'old';"));
        assert_eq!(app.program("a").unwrap().len(), 1);
        app.chunk("a").unwrap();
        assert_eq!(serve_both(&app, "a"), ["old", "old"]);
        app.add_plugin(Plugin::new("a", "2", "echo 'new'; echo '!';"));
        assert_eq!(app.program("a").unwrap().len(), 2);
        assert_eq!(serve_both(&app, "a"), ["new!", "new!"]);
    }

    #[test]
    fn stale_route_code_writes_through_plugin_mut_clear_the_caches() {
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("a", "1", "echo 'old';"));
        app.chunk("a").unwrap();
        assert_eq!(serve_both(&app, "a"), ["old", "old"]);
        app.plugin_mut("a").unwrap().source = "echo 'new'; echo '!';".into();
        assert_eq!(app.program("a").unwrap().len(), 2);
        assert_eq!(serve_both(&app, "a"), ["new!", "new!"]);
        assert!(app.set_plugin_source("a", "echo 'set';"));
        assert_eq!(serve_both(&app, "a"), ["set", "set"]);
        // The installer's input and the served code are the same text.
        assert_eq!(app.all_sources(), ["echo 'set';"]);
    }
}
