//! Persistence-aware static taint: the cross-route store/load fixpoint.
//!
//! The per-route analyzer ([`crate::analyzer`]) answers *"can this
//! request's own input reach this sink?"* — first-order flows. Second-order
//! SQL injection stores the payload first (an `INSERT`/`UPDATE` whose
//! value came from a request) and weaponizes it later, when another route
//! reads the cell back and splices the raw stored bytes into a query.
//! Magic quotes do not help: the framework escapes the *plant* request,
//! but SQL parsing unescapes the value on the way into the table, so the
//! database holds raw attacker bytes.
//!
//! This pass builds a **store/load graph over `(table, column)` cells**:
//!
//! 1. Every sink site's inferred query templates
//!    ([`crate::querymodel::infer_source`]) are rendered with a unique
//!    numeric marker per hole ([`QueryTemplate::render`]) and parsed by
//!    `joza_sqlparse`. `INSERT`/`UPDATE` statements are *store sites*: the
//!    columns whose value holds a marker receive dynamic data. `SELECT`
//!    statements are *load sites*: their projected cells
//!    ([`joza_sqlparse::cells::projected_cells`], the rule the database
//!    applies to every result it returns) flow back into the application
//!    through row fetches. With no schema to consult, a `*` loads
//!    `(table, "*")`, an unqualified column loads that column of every
//!    table in every enclosing scope, and a qualifier in no scope is taken
//!    as a table name.
//! 2. A cell turns **dirty** when a store site writes it a value the
//!    taint analysis says exceeds `Untainted` at that site. `MaybeTainted`
//!    (escaped) writes dirty the cell too — escaping survives neither SQL
//!    parsing nor the round trip.
//! 3. Routes are re-analyzed with [`AnalyzerConfig::db_sources`] marking
//!    every load site whose cells intersect the dirty set; fetched rows
//!    then carry `db:<table>.<column>` taint, and any sink they reach is
//!    a second-order flow. New findings can dirty new cells (a route can
//!    copy stored data onward), so the whole thing iterates to a
//!    **cross-route fixpoint** — monotone in the (finite) dirty set.
//!
//! Unknowns stay conservative: a site whose construction collapsed to ⊤
//! (no templates), whose probe instantiation does not parse, or whose
//! route does not parse at all is treated as *both* a load from every
//! dirty cell and — if tainted data reaches it — a store to the wildcard
//! cell `(*, *)`, which dirties everything (`db_query`'s
//! placeholder-splice surface really can write arbitrary tables once
//! stacked queries execute). Being dirty is harmless for routes that only
//! echo what they fetch: a route is classified second-order-reachable
//! only when the *re-analysis with DB sources* finds a tainted sink.
//!
//! The report feeds three consumers: [`crate::taint_free_routes`] (the
//! static fast path must not fire on second-order-reachable routes),
//! `joza_core`'s deployment (the dirty-cell set the dynamic gate uses to
//! capture DB-sourced inputs), and the remediation worklist rendered by
//! the `paper` binary's `sast` section and the `harden` bin.

use crate::analyzer::{analyze_plugin, AnalyzerConfig, TaintSummary};
use crate::lattice::Taint;
use crate::querymodel::{infer_plugin, SiteModel};
use joza_phpsim::span::Span;
use joza_sqlparse::ast::{Expr as SqlExpr, Statement};
use joza_sqlparse::cells::{projected_cells, UnknownSchema};
use joza_sqlparse::template::QueryTemplate;
use joza_webapp::app::{Plugin, WebApp};
use joza_webapp::transform::InputTransform;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A storage location: `(table, column)`, lowercased. `"*"` in either
/// position is a wildcard (whole table / every table).
pub type Cell = (String, String);

pub use joza_sqlparse::cells::ANY;

/// Classification of one route after the cross-route fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// No attacker data — request-borne or stored — reaches any sink.
    /// Exactly the routes the static fast path may skip.
    Clean,
    /// Request input reaches a sink, but stored data never does: the
    /// route is dangerous first-order only.
    FirstOrderOnly,
    /// Data read from attacker-reachable cells can reach a sink: the
    /// route is exploitable (at least) through the database.
    SecondOrderReachable,
}

impl std::fmt::Display for RouteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RouteClass::Clean => "clean",
            RouteClass::FirstOrderOnly => "first-order-only",
            RouteClass::SecondOrderReachable => "second-order-reachable",
        })
    }
}

/// One tainted write into a cell — the *plant* half of a provenance chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEvent {
    /// The dirtied cell.
    pub cell: Cell,
    /// Route performing the write.
    pub route: String,
    /// Preorder statement id of the store sink.
    pub stmt_id: usize,
    /// Sink builtin name performing the write, lowercased.
    pub sink: String,
    /// 1-based source line of the store sink.
    pub line: usize,
    /// Taint of the written value at the site.
    pub taint: Taint,
    /// Source labels of the written value (request parameters, or
    /// `db:`-cells for relayed stores).
    pub sources: Vec<String>,
    /// First line of the store statement's source text.
    pub snippet: String,
}

/// A span-level second-order provenance chain:
/// source request → store sink → load site → query sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceChain {
    /// The cell the payload travels through.
    pub cell: Cell,
    /// The write that dirtied the cell (plant).
    pub store: StoreEvent,
    /// Route containing the load and the downstream sink (trigger).
    pub load_route: String,
    /// Preorder statement id of the load site.
    pub load_stmt_id: usize,
    /// 1-based source line of the load site.
    pub load_line: usize,
    /// Preorder statement id of the downstream query sink.
    pub sink_stmt_id: usize,
    /// 1-based source line of the downstream query sink.
    pub sink_line: usize,
    /// First line of the downstream sink's source text.
    pub sink_snippet: String,
}

impl ProvenanceChain {
    /// One-line rendering of the chain.
    pub fn render(&self) -> String {
        format!(
            "{sources} -> store {store_route}:{store_line} [{table}.{column}] -> load {load_route}:{load_line} -> sink {load_route}:{sink_line} {snippet}",
            sources = self.store.sources.join("+"),
            store_route = self.store.route,
            store_line = self.store.line,
            table = self.cell.0,
            column = self.cell.1,
            load_route = self.load_route,
            load_line = self.load_line,
            sink_line = self.sink_line,
            snippet = self.sink_snippet,
        )
    }
}

/// Per-route result of the persistence-aware pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteFlow {
    /// Route slug.
    pub route: String,
    /// Final classification.
    pub class: RouteClass,
    /// Whether the *first-order* analysis (no DB sources) proved the
    /// route taint-free — the pre-PR-9 fast-path criterion.
    pub first_order_taint_free: bool,
    /// The route's taint summary under the final dirty set (DB sources
    /// installed at every dirty load site).
    pub summary: TaintSummary,
    /// Cells this route writes tainted data into (sorted, deduped).
    pub store_cells: Vec<Cell>,
    /// Cells this route's load sites read (sorted, deduped; may contain
    /// wildcards).
    pub load_cells: Vec<Cell>,
    /// Sink sites whose templates could not be classified (⊤ model,
    /// unparsable probe) — treated conservatively.
    pub unknown_sites: usize,
    /// Second-order provenance chains ending in this route's sinks.
    pub chains: Vec<ProvenanceChain>,
}

/// The cross-route fixpoint result for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFlowReport {
    /// Per-route flows, sorted by route slug.
    pub routes: Vec<RouteFlow>,
    /// The final dirty set. May contain wildcard cells.
    pub dirty: BTreeSet<Cell>,
    /// Every tainted write observed, sorted by (cell, route, stmt).
    pub stores: Vec<StoreEvent>,
    /// True when an unknown/unparsable tainted site forced the wildcard
    /// cell `(*, *)` dirty (everything attacker-reachable).
    pub top_poisoned: bool,
    /// Routes that forced the wildcard poison.
    pub poisoned_by: Vec<String>,
    /// Fixpoint rounds until stabilization.
    pub iterations: usize,
}

impl StoreFlowReport {
    /// The flow for one route, if analyzed.
    pub fn get(&self, route: &str) -> Option<&RouteFlow> {
        self.routes.iter().find(|r| r.route == route)
    }

    /// Routes classified [`RouteClass::SecondOrderReachable`], sorted.
    pub fn second_order_routes(&self) -> Vec<String> {
        self.routes
            .iter()
            .filter(|r| r.class == RouteClass::SecondOrderReachable)
            .map(|r| r.route.clone())
            .collect()
    }

    /// Routes whose sinks provably receive no attacker data even with
    /// every dirty cell treated as a source — the only routes the static
    /// fast path may still skip.
    pub fn taint_free_routes(&self) -> Vec<String> {
        self.routes
            .iter()
            .filter(|r| r.class == RouteClass::Clean)
            .map(|r| r.route.clone())
            .collect()
    }

    /// The dirty-cell set in the form `joza_core`'s deployment consumes
    /// (wildcards included; the dynamic gate honors them).
    pub fn dirty_cells(&self) -> BTreeSet<(String, String)> {
        self.dirty.clone()
    }

    /// The manual-remediation worklist: one entry per dirty cell, with
    /// the writes that dirty it and the second-order routes that read it.
    pub fn remediation_worklist(&self) -> Vec<CellRemediation> {
        let mut out: Vec<CellRemediation> = Vec::new();
        for cell in &self.dirty {
            let writers: Vec<StoreEvent> =
                self.stores.iter().filter(|s| &s.cell == cell).cloned().collect();
            let readers: Vec<String> = self
                .routes
                .iter()
                .filter(|r| {
                    r.class == RouteClass::SecondOrderReachable
                        && r.chains.iter().any(|c| &c.cell == cell)
                })
                .map(|r| r.route.clone())
                .collect();
            out.push(CellRemediation { cell: cell.clone(), writers, readers });
        }
        out
    }
}

/// One dirty cell's remediation entry (parameterize the writers, or
/// escape-on-read at the readers).
#[derive(Debug, Clone)]
pub struct CellRemediation {
    /// The attacker-reachable cell.
    pub cell: Cell,
    /// Tainted writes into the cell.
    pub writers: Vec<StoreEvent>,
    /// Second-order-reachable routes reading the cell.
    pub readers: Vec<String>,
}

// ---------------------------------------------------------------------
// Site classification: templates → store/load cells.
// ---------------------------------------------------------------------

/// What one sink site does to the store, across all its templates.
#[derive(Debug, Clone, Default)]
struct SiteAccess {
    /// Cells that receive a dynamic (hole) value in some template.
    stores: BTreeSet<Cell>,
    /// Cells whose contents some template projects back out.
    loads: BTreeSet<Cell>,
    /// Some template (or the whole site) defied classification.
    unknown: bool,
}

/// Probe marker base: distinctive digit strings no lab query contains.
const MARKER_BASE: u64 = 73_309_100;

/// Classifies one template's parsed form into store/load cells. The
/// template is rendered with one unique numeric marker per hole, first
/// with each repetition body once and then with it elided: a loop-built
/// list tail may carry separators that parse in only one of the shapes.
fn classify_template(t: &QueryTemplate, acc: &mut SiteAccess) {
    for reps in [true, false] {
        let r = t.render(reps, |i, out| out.push_str(&(MARKER_BASE + i as u64).to_string()));
        let Ok(stmt) = joza_sqlparse::parse(&r.text) else { continue };
        let markers: Vec<&str> = r.holes.iter().map(|h| &r.text[h.clone()]).collect();
        let marked = |e: &SqlExpr| {
            e.any(&|x| {
                matches!(x, SqlExpr::Literal(v) if markers.iter().any(|m| v.as_str().contains(m)))
            })
        };
        match stmt {
            // Only *projected* columns count: a stored payload re-enters
            // query text through fetched values.
            Statement::Select(sel) => {
                acc.loads.extend(projected_cells(&sel, &UnknownSchema).into_iter().flatten())
            }
            Statement::Insert(ins) => {
                for (i, expr) in ins.rows.iter().flat_map(|row| row.iter().enumerate()) {
                    if marked(expr) {
                        // A positional insert writes an unknown column.
                        let col = ins.columns.get(i).map_or(ANY, String::as_str);
                        acc.stores.insert((lc(&ins.table), lc(col)));
                    }
                }
            }
            Statement::Update(upd) => {
                for (col, _) in upd.assignments.iter().filter(|(_, expr)| marked(expr)) {
                    acc.stores.insert((lc(&upd.table), lc(col)));
                }
            }
            Statement::Delete(_) => {}
        }
        return;
    }
    // Neither rendering parsed: the runtime shape is out of reach.
    acc.unknown = true;
}

fn lc(s: &str) -> String {
    s.to_ascii_lowercase()
}

fn classify_site(site: &SiteModel) -> SiteAccess {
    let mut acc = SiteAccess::default();
    match &site.templates {
        None => acc.unknown = true,
        Some(ts) => {
            for t in ts {
                classify_template(t, &mut acc);
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// The cross-route fixpoint.
// ---------------------------------------------------------------------

/// True when `cell` (a concrete or wildcard read) hits the dirty set: the
/// wildcard cell `(*, *)` is dirty, or a dirty cell lives in the cell's
/// table and is the cell itself, the whole table, or any cell of it when
/// the read is a whole-table read.
fn covered(dirty: &BTreeSet<Cell>, cell: &Cell) -> bool {
    dirty.iter().any(|(t, c)| {
        (t == ANY && c == ANY) || (*t == cell.0 && (cell.1 == ANY || *c == cell.1 || c == ANY))
    })
}

fn cell_label(cell: &Cell) -> String {
    format!("db:{}.{}", cell.0, cell.1)
}

/// Fixpoint safety bound; the dirty set is finite and growth is monotone,
/// so convergence happens in ≤ |cells| + 2 rounds.
const MAX_ROUNDS: usize = 64;

/// One route's sink sites classified (templates are independent of the
/// dirty set, so this runs once per route).
struct RouteInfo<'a> {
    plugin: &'a Plugin,
    sites: BTreeMap<usize, SiteAccess>,
    /// Preorder statement spans (for load-site line provenance).
    spans: &'a [Span],
    parse_error: bool,
}

impl RouteInfo<'_> {
    /// The DB sources the route's taint pass gets under `dirty`: every
    /// load (or unknown) site whose cells hit the dirty set.
    fn db_sources(&self, dirty: &BTreeSet<Cell>) -> BTreeMap<usize, Vec<String>> {
        let mut db_sources = BTreeMap::new();
        for (stmt_id, access) in &self.sites {
            let mut labels: BTreeSet<String> = BTreeSet::new();
            for cell in &access.loads {
                if covered(dirty, cell) {
                    labels.insert(cell_label(cell));
                }
            }
            if access.unknown {
                // An unclassified site may read anything dirty.
                labels.extend(dirty.iter().map(cell_label));
            }
            if !labels.is_empty() {
                db_sources.insert(*stmt_id, labels.into_iter().collect());
            }
        }
        db_sources
    }
}

/// A route's latest taint pass in the fixpoint.
struct RoutePass {
    /// The DB sources it ran with.
    db_sources: BTreeMap<usize, Vec<String>>,
    summary: TaintSummary,
    /// `taint_free` of a pass the route got with no DB sources — its
    /// first-order pass — if it had one.
    first_order_taint_free: Option<bool>,
}

/// What the fixpoint has learned about the store so far.
#[derive(Default)]
struct StoreState {
    dirty: BTreeSet<Cell>,
    /// Tainted writes by (cell, route, stmt): the first pass to see one
    /// records it.
    stores: BTreeMap<(Cell, String, usize), StoreEvent>,
    top_poisoned: bool,
    poisoned_by: BTreeSet<String>,
}

impl StoreState {
    /// Folds one taint pass's tainted writes into the store; true when
    /// anything was new. Folding the same pass twice changes nothing.
    fn harvest(&mut self, info: &RouteInfo, summary: &TaintSummary) -> bool {
        let route = &info.plugin.name;
        let mut changed = false;
        if summary.parse_error.is_some() && !self.top_poisoned {
            // Unparsable route: could write anything, anywhere.
            self.top_poisoned = true;
            self.poisoned_by.insert(route.clone());
            self.dirty.insert((ANY.to_string(), ANY.to_string()));
            changed = true;
        }
        for finding in &summary.findings {
            let Some(access) = info.sites.get(&finding.stmt_id) else { continue };
            if access.unknown {
                if !self.top_poisoned {
                    self.top_poisoned = true;
                    self.dirty.insert((ANY.to_string(), ANY.to_string()));
                    changed = true;
                }
                self.poisoned_by.insert(route.clone());
            }
            for cell in &access.stores {
                if !self.dirty.contains(cell) {
                    self.dirty.insert(cell.clone());
                    changed = true;
                }
                if let Entry::Vacant(slot) =
                    self.stores.entry((cell.clone(), route.clone(), finding.stmt_id))
                {
                    slot.insert(StoreEvent {
                        cell: cell.clone(),
                        route: route.clone(),
                        stmt_id: finding.stmt_id,
                        sink: finding.sink.clone(),
                        line: finding.line,
                        taint: finding.taint,
                        sources: finding.sources.clone(),
                        snippet: finding.snippet.clone(),
                    });
                    changed = true;
                }
            }
        }
        changed
    }
}

/// Runs the persistence-aware cross-route analysis over every routable
/// endpoint of `app`, from the routes' cached parses.
///
/// The fixpoint is incremental: rounds visit the routes in slug order
/// against the dirty set as it grows, but a route's taint pass re-runs
/// only when its DB sources differ from those of its last pass — the
/// same sources give the same summary, whose writes are already
/// harvested. The report, round count included, is the one re-running
/// every route every round gives.
pub fn analyze_store_flow(app: &WebApp) -> StoreFlowReport {
    let input_escaped = app.input_pipeline.contains(&InputTransform::MagicQuotes);
    let mut plugins: Vec<&Plugin> = app.plugins().collect();
    plugins.sort_by(|a, b| a.name.cmp(&b.name));

    // Phase 1: per-route site classification.
    let infos: Vec<RouteInfo> = plugins
        .into_iter()
        .map(|plugin| {
            let model = infer_plugin(app, plugin);
            RouteInfo {
                plugin,
                sites: model.sites.iter().map(|s| (s.stmt_id, classify_site(s))).collect(),
                spans: app.parsed(&plugin.name).map_or(&[], |p| &p.spans),
                parse_error: model.parse_error,
            }
        })
        .collect();

    // Phase 2: iterate store→dirty→load→taint to a fixpoint.
    let mut state = StoreState::default();
    let mut passes: Vec<Option<RoutePass>> = infos.iter().map(|_| None).collect();
    let mut iterations = 0usize;
    for round in 0..MAX_ROUNDS {
        iterations = round + 1;
        let mut changed = false;
        for (info, pass) in infos.iter().zip(&mut passes) {
            let db_sources = info.db_sources(&state.dirty);
            if pass.as_ref().is_some_and(|p| p.db_sources == db_sources) {
                continue;
            }
            let config = AnalyzerConfig { input_escaped, db_sources };
            let summary = analyze_plugin(app, info.plugin, &config);
            changed |= state.harvest(info, &summary);
            let first_order_taint_free = if config.db_sources.is_empty() {
                Some(summary.taint_free)
            } else {
                pass.as_ref().and_then(|p| p.first_order_taint_free)
            };
            *pass =
                Some(RoutePass { db_sources: config.db_sources, summary, first_order_taint_free });
        }
        if !changed {
            break;
        }
    }

    // Phase 3: classify, and build provenance chains.
    let StoreState { dirty, stores, top_poisoned, poisoned_by } = state;
    let stores: Vec<StoreEvent> = stores.into_values().collect();
    let mut routes = Vec::with_capacity(infos.len());
    for (info, pass) in infos.iter().zip(passes) {
        let RoutePass { db_sources, summary, first_order_taint_free } =
            pass.expect("every route has a pass after round 1");
        let name = &info.plugin.name;
        let source = &info.plugin.source;
        let first_order_taint_free = first_order_taint_free.unwrap_or_else(|| {
            let config = AnalyzerConfig { input_escaped, ..AnalyzerConfig::default() };
            analyze_plugin(app, info.plugin, &config).taint_free
        });

        let mut chains = Vec::new();
        for finding in &summary.findings {
            for src in &finding.sources {
                let Some(cell_name) = src.strip_prefix("db:") else { continue };
                let (table, column) = cell_name.split_once('.').unwrap_or((cell_name, ANY));
                let cell: Cell = (table.to_string(), column.to_string());
                // Which load site introduced this label?
                let load_site = db_sources
                    .iter()
                    .find(|(_, labels)| labels.iter().any(|l| l == src))
                    .map(|(id, _)| *id);
                let Some(load_stmt_id) = load_site else { continue };
                let load_line = info.spans.get(load_stmt_id).map(|s| s.line(source)).unwrap_or(0);
                // Every store event that can have dirtied this cell.
                for store in stores.iter().filter(|s| {
                    s.cell == cell
                        || s.cell == (cell.0.clone(), ANY.to_string())
                        || s.cell == (ANY.to_string(), ANY.to_string())
                }) {
                    chains.push(ProvenanceChain {
                        cell: cell.clone(),
                        store: store.clone(),
                        load_route: name.clone(),
                        load_stmt_id,
                        load_line,
                        sink_stmt_id: finding.stmt_id,
                        sink_line: finding.line,
                        sink_snippet: finding.snippet.clone(),
                    });
                }
            }
        }
        chains.sort_by(|a, b| {
            (a.sink_stmt_id, &a.cell, &a.store.route, a.store.stmt_id).cmp(&(
                b.sink_stmt_id,
                &b.cell,
                &b.store.route,
                b.store.stmt_id,
            ))
        });
        chains.dedup();

        let has_db_finding =
            summary.findings.iter().any(|f| f.sources.iter().any(|s| s.starts_with("db:")));
        let class = if summary.taint_free {
            RouteClass::Clean
        } else if has_db_finding {
            RouteClass::SecondOrderReachable
        } else {
            RouteClass::FirstOrderOnly
        };

        let store_cells: Vec<Cell> = stores
            .iter()
            .filter(|s| s.route == *name)
            .map(|s| s.cell.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let load_cells: Vec<Cell> = info
            .sites
            .values()
            .flat_map(|a| a.loads.iter().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let unknown_sites =
            info.sites.values().filter(|a| a.unknown).count() + usize::from(info.parse_error);

        routes.push(RouteFlow {
            route: name.clone(),
            class,
            first_order_taint_free,
            summary,
            store_cells,
            load_cells,
            unknown_sites,
            chains,
        });
    }

    StoreFlowReport {
        routes,
        dirty,
        stores,
        top_poisoned,
        poisoned_by: poisoned_by.into_iter().collect(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::template::TemplatePart;
    use joza_webapp::app::{Plugin, WebApp};

    fn app_of(routes: &[(&str, &str)]) -> WebApp {
        let mut app = WebApp::default();
        for (name, src) in routes {
            app.add_plugin(Plugin::new(name, "1.0", src));
        }
        app
    }

    /// The round-by-round fixpoint the incremental one replaced: every
    /// route re-parsed and re-analyzed from its source text in every
    /// round, and a separate first-order pass per route. Kept as the
    /// differential reference.
    fn reference_store_flow(app: &WebApp) -> StoreFlowReport {
        let input_escaped = app.input_pipeline.contains(&InputTransform::MagicQuotes);
        let mut plugins: Vec<_> = app.plugins().collect();
        plugins.sort_by(|a, b| a.name.cmp(&b.name));

        // Phase 1: per-route site classification (once; templates are
        // independent of the dirty set).
        struct RouteInfo<'a> {
            name: &'a str,
            source: &'a str,
            sites: BTreeMap<usize, SiteAccess>,
            /// Preorder statement spans (for load-site line provenance).
            spans: Vec<joza_phpsim::span::Span>,
            parse_error: bool,
        }
        let infos: Vec<RouteInfo> = plugins
            .iter()
            .map(|p| {
                let model = crate::infer_source(&p.name, &p.source);
                let sites = model.sites.iter().map(|s| (s.stmt_id, classify_site(s))).collect();
                let spans = joza_phpsim::parser::parse_program_spanned(&p.source)
                    .map(|(_, spans)| spans)
                    .unwrap_or_default();
                RouteInfo {
                    name: &p.name,
                    source: &p.source,
                    sites,
                    spans,
                    parse_error: model.parse_error,
                }
            })
            .collect();

        // Phase 2: iterate store→dirty→load→taint to a fixpoint.
        let mut dirty: BTreeSet<Cell> = BTreeSet::new();
        let mut stores: Vec<StoreEvent> = Vec::new();
        let mut top_poisoned = false;
        let mut poisoned_by: BTreeSet<String> = BTreeSet::new();
        let mut summaries: Vec<TaintSummary> = Vec::new();
        let mut db_source_maps: Vec<BTreeMap<usize, Vec<String>>> = Vec::new();
        let mut iterations = 0usize;

        for round in 0..MAX_ROUNDS {
            iterations = round + 1;
            let mut changed = false;
            summaries.clear();
            db_source_maps.clear();

            for info in &infos {
                // Install DB sources at every load (or unknown) site whose
                // cells hit the dirty set.
                let mut db_sources: BTreeMap<usize, Vec<String>> = BTreeMap::new();
                for (stmt_id, access) in &info.sites {
                    let mut labels: BTreeSet<String> = BTreeSet::new();
                    for cell in &access.loads {
                        if covered(&dirty, cell) {
                            labels.insert(cell_label(cell));
                        }
                    }
                    if access.unknown {
                        // An unclassified site may read anything dirty.
                        for cell in &dirty {
                            labels.insert(cell_label(cell));
                        }
                    }
                    if !labels.is_empty() {
                        db_sources.insert(*stmt_id, labels.into_iter().collect());
                    }
                }
                let config = AnalyzerConfig { input_escaped, db_sources: db_sources.clone() };
                let summary = crate::analyze_source(info.name, info.source, &config);

                // Harvest tainted writes.
                if summary.parse_error.is_some() && !top_poisoned {
                    // Unparsable route: could write anything, anywhere.
                    top_poisoned = true;
                    poisoned_by.insert(info.name.to_string());
                    dirty.insert((ANY.to_string(), ANY.to_string()));
                    changed = true;
                }
                for finding in &summary.findings {
                    let Some(access) = info.sites.get(&finding.stmt_id) else { continue };
                    if access.unknown {
                        if !top_poisoned {
                            top_poisoned = true;
                            dirty.insert((ANY.to_string(), ANY.to_string()));
                            changed = true;
                        }
                        poisoned_by.insert(info.name.to_string());
                    }
                    for cell in &access.stores {
                        let event = StoreEvent {
                            cell: cell.clone(),
                            route: info.name.to_string(),
                            stmt_id: finding.stmt_id,
                            sink: finding.sink.clone(),
                            line: finding.line,
                            taint: finding.taint,
                            sources: finding.sources.clone(),
                            snippet: finding.snippet.clone(),
                        };
                        if dirty.insert(cell.clone()) {
                            changed = true;
                        }
                        if !stores.iter().any(|s| {
                            s.cell == event.cell
                                && s.route == event.route
                                && s.stmt_id == event.stmt_id
                        }) {
                            stores.push(event);
                            changed = true;
                        }
                    }
                }
                summaries.push(summary);
                db_source_maps.push(db_sources);
            }
            if !changed {
                break;
            }
        }

        // Phase 3: classify, and build provenance chains.
        stores.sort_by(|a, b| (&a.cell, &a.route, a.stmt_id).cmp(&(&b.cell, &b.route, b.stmt_id)));
        let mut routes = Vec::with_capacity(infos.len());
        for (idx, info) in infos.iter().enumerate() {
            let summary = summaries[idx].clone();
            let db_sources = &db_source_maps[idx];
            let first_order = crate::analyze_source(
                info.name,
                info.source,
                &AnalyzerConfig { input_escaped, ..AnalyzerConfig::default() },
            );

            let mut chains = Vec::new();
            for finding in &summary.findings {
                for src in &finding.sources {
                    let Some(cell_name) = src.strip_prefix("db:") else { continue };
                    let (table, column) = cell_name.split_once('.').unwrap_or((cell_name, ANY));
                    let cell: Cell = (table.to_string(), column.to_string());
                    // Which load site introduced this label?
                    let load_site = db_sources
                        .iter()
                        .find(|(_, labels)| labels.iter().any(|l| l == src))
                        .map(|(id, _)| *id);
                    let Some(load_stmt_id) = load_site else { continue };
                    let load_line =
                        info.spans.get(load_stmt_id).map(|s| s.line(info.source)).unwrap_or(0);
                    // Every store event that can have dirtied this cell.
                    for store in stores.iter().filter(|s| {
                        s.cell == cell
                            || s.cell == (cell.0.clone(), ANY.to_string())
                            || s.cell == (ANY.to_string(), ANY.to_string())
                    }) {
                        chains.push(ProvenanceChain {
                            cell: cell.clone(),
                            store: store.clone(),
                            load_route: info.name.to_string(),
                            load_stmt_id,
                            load_line,
                            sink_stmt_id: finding.stmt_id,
                            sink_line: finding.line,
                            sink_snippet: finding.snippet.clone(),
                        });
                    }
                }
            }
            chains.sort_by(|a, b| {
                (a.sink_stmt_id, &a.cell, &a.store.route, a.store.stmt_id).cmp(&(
                    b.sink_stmt_id,
                    &b.cell,
                    &b.store.route,
                    b.store.stmt_id,
                ))
            });
            chains.dedup();

            let has_db_finding =
                summary.findings.iter().any(|f| f.sources.iter().any(|s| s.starts_with("db:")));
            let class = if summary.taint_free {
                RouteClass::Clean
            } else if has_db_finding {
                RouteClass::SecondOrderReachable
            } else {
                RouteClass::FirstOrderOnly
            };

            let store_cells: Vec<Cell> = stores
                .iter()
                .filter(|s| s.route == info.name)
                .map(|s| s.cell.clone())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let load_cells: Vec<Cell> = info
                .sites
                .values()
                .flat_map(|a| a.loads.iter().cloned())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let unknown_sites =
                info.sites.values().filter(|a| a.unknown).count() + usize::from(info.parse_error);

            routes.push(RouteFlow {
                route: info.name.to_string(),
                class,
                first_order_taint_free: first_order.taint_free,
                summary,
                store_cells,
                load_cells,
                unknown_sites,
                chains,
            });
        }

        StoreFlowReport {
            routes,
            dirty,
            stores,
            top_poisoned,
            poisoned_by: poisoned_by.into_iter().collect(),
            iterations,
        }
    }

    fn assert_matches_reference(app: &WebApp) -> StoreFlowReport {
        let report = analyze_store_flow(app);
        assert_eq!(report, reference_store_flow(app));
        report
    }

    #[test]
    fn fixpoint_reference_matches_on_the_lab() {
        let lab = joza_lab::build_lab();
        assert_matches_reference(&lab.server.app);
    }

    #[test]
    fn fixpoint_reference_matches_on_the_second_order_lab() {
        let so = joza_lab::second_order::build_second_order_lab();
        let report = assert_matches_reference(&so.lab.server.app);
        assert!(!report.second_order_routes().is_empty());
    }

    #[test]
    fn fixpoint_reference_matches_on_a_chain_needing_many_rounds() {
        // Rounds visit routes in slug order, so a chain whose links run
        // against that order advances one link per round: z plants t1,
        // y copies t1 → t2, x copies t2 → t3, w re-interpolates t3.
        let relay = |from: &str, to: &str| {
            format!(
                r#"
                $r = mysql_query("SELECT v FROM {from} WHERE id=1");
                $row = mysql_fetch_row($r);
                mysql_query("INSERT INTO {to} (id, v) VALUES (1, '" . $row . "')");
                "#
            )
        };
        let plant = r#"
            $v = $_POST['v'];
            mysql_query("INSERT INTO t1 (id, v) VALUES (1, '" . $v . "')");
        "#;
        let trigger = r#"
            $r = mysql_query("SELECT v FROM t3 WHERE id=1");
            $row = mysql_fetch_row($r);
            mysql_query("SELECT * FROM posts WHERE author='" . $row . "'");
        "#;
        let (y, x) = (relay("t1", "t2"), relay("t2", "t3"));
        let app =
            app_of(&[("z-plant", plant), ("y-relay", &y), ("x-relay", &x), ("w-trigger", trigger)]);
        let report = assert_matches_reference(&app);
        assert!(report.iterations >= 3, "{} rounds", report.iterations);
        assert_eq!(report.get("w-trigger").unwrap().class, RouteClass::SecondOrderReachable);
        // A relay's first pass already carries DB sources from the plant
        // earlier in the same round: its first-order verdict must come
        // from a pass without them.
        let forward = app_of(&[("a-plant", plant), ("b-relay", &y)]);
        let report = assert_matches_reference(&forward);
        let relay = report.get("b-relay").unwrap();
        assert!(relay.first_order_taint_free);
        assert_eq!(relay.class, RouteClass::SecondOrderReachable);
    }

    #[test]
    fn fixpoint_reference_matches_under_poison_and_parse_errors() {
        let unknown = r#"
            $ids = $_GET['ids'];
            db_query("SELECT name FROM nodes WHERE id IN (:ids)", array(':ids' => $ids));
        "#;
        let app = app_of(&[
            ("unknown", unknown),
            ("trigger", LOAD_ROUTE),
            ("plant", STORE_ROUTE),
            ("broken", "$x = ;"),
        ]);
        assert!(assert_matches_reference(&app).top_poisoned);
    }

    #[test]
    fn store_flow_parses_each_route_once() {
        let app = joza_lab::second_order::build_second_order_lab().lab.server.app;
        let before = joza_phpsim::parser::parse_count();
        analyze_store_flow(&app);
        assert_eq!(joza_phpsim::parser::parse_count() - before, app.plugin_count() as u64);
    }

    const STORE_ROUTE: &str = r#"
        $bio = $_POST['bio'];
        mysql_query("INSERT INTO profiles (id, bio) VALUES (1, '" . $bio . "')");
        echo "saved";
    "#;

    const LOAD_ROUTE: &str = r#"
        $r = mysql_query("SELECT bio FROM profiles WHERE id=1");
        $row = mysql_fetch_row($r);
        mysql_query("SELECT * FROM posts WHERE author='" . $row . "'");
    "#;

    const ECHO_ROUTE: &str = r#"
        $r = mysql_query("SELECT bio FROM profiles WHERE id=1");
        $row = mysql_fetch_row($r);
        echo $row;
    "#;

    #[test]
    fn plant_then_trigger_is_second_order_reachable() {
        let app = app_of(&[("plant", STORE_ROUTE), ("trigger", LOAD_ROUTE)]);
        let report = analyze_store_flow(&app);
        assert!(report.dirty.contains(&("profiles".to_string(), "bio".to_string())));
        assert!(!report.top_poisoned);

        let plant = report.get("plant").expect("plant analyzed");
        assert_eq!(plant.class, RouteClass::FirstOrderOnly);
        assert_eq!(plant.store_cells, vec![("profiles".to_string(), "bio".to_string())]);

        let trigger = report.get("trigger").expect("trigger analyzed");
        assert_eq!(trigger.class, RouteClass::SecondOrderReachable);
        assert!(trigger.first_order_taint_free, "no request input reaches its sinks");
        assert_eq!(trigger.chains.len(), 1);
        let chain = &trigger.chains[0];
        assert_eq!(chain.store.route, "plant");
        assert_eq!(chain.cell, ("profiles".to_string(), "bio".to_string()));
        assert!(chain.store.sources.contains(&"$_POST['bio']".to_string()));
        assert!(chain.render().contains("profiles.bio"));
    }

    #[test]
    fn correlated_subquery_reader_loads_the_outer_cell() {
        let writer = r#"
            $t = $_POST['title'];
            mysql_query("UPDATE posts SET title='" . $t . "' WHERE id=1");
        "#;
        let reader = |select: &str| {
            format!(
                r#"
                $r = mysql_query("{select}");
                $row = mysql_fetch_row($r);
                mysql_query("SELECT * FROM comments WHERE body='" . $row . "'");
                "#
            )
        };
        let readers = [
            reader("SELECT (SELECT p.title FROM users u LIMIT 1) AS t FROM posts p"),
            reader("SELECT (SELECT title FROM users LIMIT 1) AS t FROM posts"),
            reader("SELECT title AS t FROM posts"),
        ];
        let title = ("posts".to_string(), "title".to_string());
        for source in &readers {
            let app = app_of(&[("writer", writer), ("reader", source)]);
            let report = analyze_store_flow(&app);
            assert_eq!(report.dirty, BTreeSet::from([title.clone()]));
            let flow = report.get("reader").expect("reader analyzed");
            assert!(flow.load_cells.contains(&title), "{source}: {:?}", flow.load_cells);
            assert_eq!(flow.class, RouteClass::SecondOrderReachable, "{source}");
            assert!(!report.taint_free_routes().contains(&"reader".to_string()), "{source}");
        }
    }

    #[test]
    fn echo_only_reader_stays_clean() {
        // Reading a dirty cell is harmless if the data never re-enters a
        // query — the fast path must keep working for such routes.
        let app = app_of(&[("plant", STORE_ROUTE), ("echo", ECHO_ROUTE)]);
        let report = analyze_store_flow(&app);
        assert!(report.dirty.contains(&("profiles".to_string(), "bio".to_string())));
        let echo = report.get("echo").expect("echo analyzed");
        assert_eq!(echo.class, RouteClass::Clean);
        assert_eq!(report.taint_free_routes(), vec!["echo".to_string()]);
    }

    #[test]
    fn clean_store_does_not_dirty() {
        let clean_store = r#"
            $n = intval($_POST['n']);
            mysql_query("INSERT INTO counters (id, n) VALUES (1, '" . $n . "')");
        "#;
        let app = app_of(&[("clean-store", clean_store), ("trigger", LOAD_ROUTE)]);
        let report = analyze_store_flow(&app);
        assert!(report.dirty.is_empty(), "sanitized writes dirty nothing");
        assert_eq!(report.get("trigger").unwrap().class, RouteClass::Clean);
    }

    #[test]
    fn update_assignments_dirty_their_columns() {
        let updater = r#"
            $sig = $_GET['sig'];
            mysql_query("UPDATE profiles SET sig='" . $sig . "' WHERE id=1");
        "#;
        let app = app_of(&[("updater", updater)]);
        let report = analyze_store_flow(&app);
        assert_eq!(
            report.dirty.iter().cloned().collect::<Vec<_>>(),
            vec![("profiles".to_string(), "sig".to_string())]
        );
    }

    #[test]
    fn where_only_taint_does_not_dirty() {
        // Tainted WHERE, clean SET: the *stored value* is static.
        let updater = r#"
            $id = $_GET['id'];
            mysql_query("UPDATE profiles SET flagged='yes' WHERE id=" . $id);
        "#;
        let app = app_of(&[("updater", updater)]);
        let report = analyze_store_flow(&app);
        assert!(report.dirty.is_empty());
        assert_eq!(report.get("updater").unwrap().class, RouteClass::FirstOrderOnly);
    }

    #[test]
    fn escaped_store_still_dirties() {
        // Magic-quotes-escaped writes land raw in the table (SQL parsing
        // unescapes); MaybeTainted at the store must dirty the cell.
        let mut app = WebApp::default();
        app.input_pipeline = joza_webapp::transform::TransformPipeline::wordpress();
        app.add_plugin(Plugin::new("plant", "1.0", STORE_ROUTE));
        app.add_plugin(Plugin::new("trigger", "1.0", LOAD_ROUTE));
        let report = analyze_store_flow(&app);
        assert!(report.dirty.contains(&("profiles".to_string(), "bio".to_string())));
        assert_eq!(report.get("trigger").unwrap().class, RouteClass::SecondOrderReachable);
    }

    #[test]
    fn relay_reaches_transitive_fixpoint() {
        // plant → t1; relay copies t1 → t2; trigger reads t2. Two rounds
        // of the fixpoint are needed to see the trigger.
        let relay = r#"
            $r = mysql_query("SELECT bio FROM profiles WHERE id=1");
            $row = mysql_fetch_row($r);
            mysql_query("INSERT INTO archive (id, old_bio) VALUES (2, '" . $row . "')");
        "#;
        let trigger2 = r#"
            $r = mysql_query("SELECT old_bio FROM archive WHERE id=2");
            $row = mysql_fetch_row($r);
            mysql_query("SELECT * FROM posts WHERE author='" . $row . "'");
        "#;
        let app = app_of(&[("plant", STORE_ROUTE), ("relay", relay), ("trigger2", trigger2)]);
        let report = analyze_store_flow(&app);
        assert!(report.dirty.contains(&("archive".to_string(), "old_bio".to_string())));
        let t = report.get("trigger2").expect("trigger2");
        assert_eq!(t.class, RouteClass::SecondOrderReachable);
        assert!(report.iterations >= 2);
        // The relay itself is second-order reachable too (stored data
        // reaches its INSERT sink).
        assert_eq!(report.get("relay").unwrap().class, RouteClass::SecondOrderReachable);
    }

    #[test]
    fn unknown_site_poisons_conservatively() {
        let unknown = r#"
            $ids = $_GET['ids'];
            db_query("SELECT name FROM nodes WHERE id IN (:ids)", array(':ids' => $ids));
        "#;
        let app = app_of(&[("unknown", unknown), ("trigger", LOAD_ROUTE)]);
        let report = analyze_store_flow(&app);
        assert!(report.top_poisoned);
        assert_eq!(report.poisoned_by, vec!["unknown".to_string()]);
        // Everything is reachable now; the trigger re-interpolates, so it
        // is flagged — but a pure echo route would still be Clean.
        assert_eq!(report.get("trigger").unwrap().class, RouteClass::SecondOrderReachable);
    }

    #[test]
    fn worklist_names_writers_and_readers() {
        let app = app_of(&[("plant", STORE_ROUTE), ("trigger", LOAD_ROUTE)]);
        let report = analyze_store_flow(&app);
        let worklist = report.remediation_worklist();
        assert_eq!(worklist.len(), 1);
        let entry = &worklist[0];
        assert_eq!(entry.cell, ("profiles".to_string(), "bio".to_string()));
        assert_eq!(entry.writers.len(), 1);
        assert_eq!(entry.writers[0].route, "plant");
        assert_eq!(entry.readers, vec!["trigger".to_string()]);
    }

    #[test]
    fn template_marker_instantiation_classifies_selects_and_inserts() {
        let t = QueryTemplate {
            parts: vec![
                TemplatePart::Lit("INSERT INTO t (a, b) VALUES ('".to_string()),
                TemplatePart::Hole,
                TemplatePart::Lit("', 'static')".to_string()),
            ],
        };
        let mut acc = SiteAccess::default();
        classify_template(&t, &mut acc);
        assert!(!acc.unknown);
        assert_eq!(
            acc.stores.iter().cloned().collect::<Vec<_>>(),
            vec![("t".to_string(), "a".to_string())]
        );

        let s = QueryTemplate {
            parts: vec![
                TemplatePart::Lit(
                    "SELECT x, y FROM t1 JOIN t2 ON t1.id=t2.id WHERE q='".to_string(),
                ),
                TemplatePart::Hole,
                TemplatePart::Lit("'".to_string()),
            ],
        };
        let mut acc = SiteAccess::default();
        classify_template(&s, &mut acc);
        assert!(!acc.unknown);
        // Unqualified x/y attribute to both tables.
        assert_eq!(acc.loads.len(), 4);
    }
}
