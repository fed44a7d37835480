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
use joza_phpsim::parser::{parse_program, PhpParseError};
use std::collections::HashMap;
use std::sync::Arc;
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

    /// Sets the simulated render cost (builder style).
    #[must_use]
    pub fn with_render_cost(mut self, cost: Duration) -> Self {
        self.render_cost = cost;
        self
    }
}

/// A web application: core sources + plugins + framework input pipeline.
///
/// Core sources are shared, immutable text: cloning an application (one
/// per deployment or worker) copies a pointer per core file, not the
/// files. A WordPress-scale core is megabytes of source.
#[derive(Debug, Clone, Default)]
pub struct WebApp {
    /// Application name.
    pub name: String,
    /// Non-routable framework sources (WordPress core files), shared by
    /// every clone.
    core_sources: Vec<Arc<str>>,
    /// Plugins by slug.
    plugins: HashMap<String, Plugin>,
    /// Framework-level input transformation pipeline, applied to every
    /// request input before plugin code runs (WordPress: magic quotes).
    pub input_pipeline: TransformPipeline,
    /// Parse cache: route → parsed program, shared by reference so the
    /// request path never clones statement lists.
    parsed: HashMap<String, Arc<Vec<Stmt>>>,
    /// Compile cache: route → bytecode chunk for the VM engine.
    compiled: HashMap<String, Arc<Chunk>>,
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

    /// Registers a plugin under its name.
    pub fn add_plugin(&mut self, plugin: Plugin) {
        self.plugins.insert(plugin.name.clone(), plugin);
    }

    /// Looks up a plugin by slug.
    pub fn plugin(&self, slug: &str) -> Option<&Plugin> {
        self.plugins.get(slug)
    }

    /// Mutable plugin lookup (used by the benchmark harness to assign
    /// calibrated render costs).
    pub fn plugin_mut(&mut self, slug: &str) -> Option<&mut Plugin> {
        self.plugins.get_mut(slug)
    }

    /// Iterates plugins in arbitrary order.
    pub fn plugins(&self) -> impl Iterator<Item = &Plugin> {
        self.plugins.values()
    }

    /// Replaces a plugin's source text, invalidating its parse- and
    /// compile-cache entries (a stale cached program or chunk would
    /// silently keep serving the old code). Returns false when no such
    /// plugin exists.
    pub fn set_plugin_source(&mut self, slug: &str, source: &str) -> bool {
        match self.plugins.get_mut(slug) {
            Some(p) => {
                p.source = source.to_string();
                self.parsed.remove(slug);
                self.compiled.remove(slug);
                true
            }
            None => false,
        }
    }

    /// Number of registered plugins.
    pub fn plugin_count(&self) -> usize {
        self.plugins.len()
    }

    /// Every source file reachable from the top directory: core sources
    /// then plugin sources. This is the installer's fragment-extraction
    /// input (§IV-A).
    pub fn all_sources(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.core_sources.iter().map(|s| &**s).collect();
        let mut slugs: Vec<&String> = self.plugins.keys().collect();
        slugs.sort();
        for slug in slugs {
            out.push(&self.plugins[slug].source);
        }
        out
    }

    /// Parses (and caches) the program for a route.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn program(&mut self, slug: &str) -> Result<&[Stmt], PhpParseError> {
        if !self.parsed.contains_key(slug) {
            let src = self
                .plugins
                .get(slug)
                .map(|p| p.source.clone())
                .ok_or_else(|| PhpParseError { at: 0, message: format!("no route {slug}") })?;
            let prog = parse_program(&src)?;
            self.parsed.insert(slug.to_string(), Arc::new(prog));
        }
        Ok(self.parsed.get(slug).expect("just inserted"))
    }

    /// Like [`WebApp::program`], but hands back the shared [`Arc`] so the
    /// tree-walk serving path can run the program without cloning the
    /// statement list per request.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn program_arc(&mut self, slug: &str) -> Result<Arc<Vec<Stmt>>, PhpParseError> {
        self.program(slug)?;
        Ok(Arc::clone(self.parsed.get(slug).expect("cached by program()")))
    }

    /// Compiles (and caches) the bytecode chunk for a route — the VM
    /// engine's per-route artifact, built once and served by [`Arc`].
    /// Compilation itself is total; only parsing can fail.
    ///
    /// # Errors
    ///
    /// Propagates [`PhpParseError`] from the plugin source.
    pub fn chunk(&mut self, slug: &str) -> Result<Arc<Chunk>, PhpParseError> {
        if !self.compiled.contains_key(slug) {
            let program = self.program_arc(slug)?;
            self.compiled.insert(slug.to_string(), Arc::new(compile(&program)));
        }
        Ok(Arc::clone(self.compiled.get(slug).expect("just inserted")))
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
}
