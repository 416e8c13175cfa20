//! # mix-bench — shared scenario builders for the experiment harness
//!
//! Every experiment in EXPERIMENTS.md pulls its workloads from here, so
//! the Criterion benches and the `experiments` table binary measure
//! exactly the same setups.

#![forbid(unsafe_code)]

use mix_algebra::{translate, Plan};
use mix_core::{Engine, EngineConfig, SourceRegistry};
use mix_nav::explore::{first_k_children, materialize};
use mix_wrappers::gen;
use mix_xmas::parse_query;

/// The paper's Figure 3 query (homes with local schools).
pub const FIG3_QUERY: &str = r#"
CONSTRUCT <answer>
            <med_home> $H $S {$S} </med_home> {$H}
          </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
  AND schoolsSrc schools.school $S AND $S zip._ $V2
  AND $V1 = $V2
"#;

/// The Example 1 filter view.
pub const FILTER_QUERY: &str =
    "CONSTRUCT <picked> $X {$X} </picked> {} WHERE src items.wanted $X";

/// Translate a query, panicking on malformed input (fixtures only).
pub fn plan_for(query: &str) -> Plan {
    translate(&parse_query(query).expect("fixture query parses")).expect("fixture translates")
}

/// Fresh homes/schools sources for the running example: `n` of each,
/// zip pool of `n_zips` (controls join selectivity).
pub fn homes_schools_registry(seed: u64, n: usize, n_zips: usize) -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    reg.add_tree("homesSrc", &gen::homes_doc(seed, n, n_zips));
    reg.add_tree("schoolsSrc", &gen::schools_doc(seed + 1, n, n_zips));
    reg
}

/// Fresh filter-view source: `n` items with one match every `gap`.
pub fn filter_registry(n: usize, gap: usize) -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    reg.add_tree("src", &gen::filter_doc(n, gap));
    reg
}

/// Source navigations to materialize the first `k` answer children.
pub fn lazy_first_k_cost(plan: &Plan, reg: &SourceRegistry, k: usize, config: EngineConfig) -> u64 {
    let mut engine = Engine::with_config(plan.clone(), reg, config).expect("plan wires");
    let _ = first_k_children(&mut engine, k);
    engine.stats().total().total()
}

/// Source navigations to materialize the complete answer lazily.
pub fn lazy_full_cost(plan: &Plan, reg: &SourceRegistry, config: EngineConfig) -> u64 {
    let mut engine = Engine::with_config(plan.clone(), reg, config).expect("plan wires");
    materialize(&mut engine);
    engine.stats().total().total()
}

/// Materialize the first `k` children lazily and return them (for result
/// assertions in benches).
pub fn lazy_first_k(
    plan: &Plan,
    reg: &SourceRegistry,
    k: usize,
    config: EngineConfig,
) -> Vec<mix_xml::Tree> {
    let mut engine = Engine::with_config(plan.clone(), reg, config).expect("plan wires");
    first_k_children(&mut engine, k)
}

/// A minimal JSON value for the experiment binary's machine-readable
/// outputs (`BENCH_E5.json`, `BENCH_E14.json`). The workspace has no
/// serde; experiments only emit flat objects/arrays of numbers and
/// strings, so a tiny hand-rolled renderer suffices.
#[derive(Debug, Clone)]
pub enum Json {
    /// An integer (all experiment counters are non-negative).
    Int(u64),
    /// A float (wall-clock milliseconds, ratios).
    Num(f64),
    /// A boolean (differential checks).
    Bool(bool),
    /// A string (labels; must not need escaping beyond quotes/backslash).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render with the given indent level (two spaces per level).
    fn render(&self, out: &mut String, level: usize) {
        use std::fmt::Write;
        match self {
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                let _ = write!(out, "{x:.3}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                    item.render(out, level + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(level));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                    let _ = write!(out, "\"{k}\": ");
                    v.render(out, level + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(level));
                out.push('}');
            }
        }
    }

    /// Render as a pretty-printed JSON document (trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write the document to `path`, logging the destination.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// A simple fixed-width table printer for the experiment binary.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Start a table and print its header.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        let t = TablePrinter { widths: widths.to_vec() };
        t.row(headers);
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        t
    }

    /// Print one row.
    pub fn row<S: AsRef<str>>(&self, cells: &[S]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{:<width$}  ", cell.as_ref(), width = w));
        }
        println!("{}", line.trim_end());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build() {
        let plan = plan_for(FIG3_QUERY);
        let reg = homes_schools_registry(1, 20, 5);
        let cost_first = lazy_first_k_cost(&plan, &reg, 1, EngineConfig::default());
        let reg2 = homes_schools_registry(1, 20, 5);
        let cost_all = lazy_full_cost(&plan, &reg2, EngineConfig::default());
        assert!(cost_first > 0 && cost_all >= cost_first);
    }

    #[test]
    fn json_renders_nested_documents() {
        let doc = Json::Obj(vec![
            ("experiment".to_string(), Json::str("E14")),
            ("identical".to_string(), Json::Bool(true)),
            (
                "configs".to_string(),
                Json::Arr(vec![Json::Obj(vec![
                    ("mode".to_string(), Json::str("batched")),
                    ("requests".to_string(), Json::Int(61)),
                    ("wall_ms".to_string(), Json::Num(1.25)),
                ])]),
            ),
            ("empty".to_string(), Json::Arr(vec![])),
        ]);
        let text = doc.to_pretty();
        assert!(text.contains("\"experiment\": \"E14\""), "{text}");
        assert!(text.contains("\"requests\": 61"), "{text}");
        assert!(text.contains("\"wall_ms\": 1.250"), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(Json::str("a\"b\\c").to_pretty(), "\"a\\\"b\\\\c\"\n");
    }

    #[test]
    fn filter_scenario_scales_with_gap() {
        let plan = plan_for(FILTER_QUERY);
        let near = lazy_first_k_cost(&plan, &filter_registry(200, 1), 1, EngineConfig::default());
        let far = lazy_first_k_cost(&plan, &filter_registry(200, 50), 1, EngineConfig::default());
        assert!(far > near);
    }
}
