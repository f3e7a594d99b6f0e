//! Compares a freshly generated `BENCH_*.json` against the committed
//! baseline and classifies every drift.
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json>
//! ```
//!
//! Two kinds of numbers live in the bench JSONs, with opposite
//! tolerance:
//!
//! * **Deterministic** values — anything whose key mentions `cycles`,
//!   plus structural configuration (`bench`, `shards`, `jobs`, `iters`,
//!   `threads`, `data_bytes`, `access_slots`, `system_errors`). These
//!   are simulated measurements, exactly reproducible on any machine:
//!   *any* drift is a real interpreter or cost-model change and fails
//!   the comparison (exit code 1).
//! * **Host-dependent** values — wall-clock keys (`*_us`), speedups
//!   derived from wall clocks, `host_cores`, and check/reason/replay
//!   strings. These legitimately vary across machines and runs, so a
//!   drift only prints a warning. (Simulated `us` values are derived
//!   from cycles at 8 MHz, so their exactness is already covered by the
//!   cycle keys.)
//!
//! Keys present in one file but not the other fail when deterministic,
//! warn otherwise — a renamed or dropped metric should never slip
//! through CI silently.
//!
//! The JSON reader below is deliberately minimal (objects, arrays,
//! strings, numbers, booleans, null — everything the bench harnesses
//! emit); the workspace vendors no JSON crate and this tool must not
//! grow one.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A leaf value in a bench JSON document.
#[derive(Debug, Clone, PartialEq)]
enum Leaf {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Num(n) => write!(f, "{n}"),
            Leaf::Str(s) => write!(f, "{s:?}"),
            Leaf::Bool(b) => write!(f, "{b}"),
            Leaf::Null => write!(f, "null"),
        }
    }
}

/// A parsed JSON value.
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Leaf(Leaf),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        // \uXXXX and the rest never appear in bench
                        // output; pass the raw character through.
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.err("bad number"))
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    fields.push((key, self.parse_value()?));
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            b'"' => Ok(Json::Leaf(Leaf::Str(self.parse_string()?))),
            b't' if self.eat_literal("true") => Ok(Json::Leaf(Leaf::Bool(true))),
            b'f' if self.eat_literal("false") => Ok(Json::Leaf(Leaf::Bool(false))),
            b'n' if self.eat_literal("null") => Ok(Json::Leaf(Leaf::Null)),
            _ => Ok(Json::Leaf(Leaf::Num(self.parse_number()?))),
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Flattens a document into `path -> leaf` (paths like
/// `points[2].striped_wall_us` or `c1.call_cycles`).
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, Leaf>) {
    match v {
        Json::Object(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, child, out);
            }
        }
        Json::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), child, out);
            }
        }
        Json::Leaf(l) => {
            out.insert(prefix.to_string(), l.clone());
        }
    }
}

/// Whether a flattened path names a deterministic (exact-compare) value.
fn is_deterministic(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.contains("cycles") {
        return true;
    }
    matches!(
        leaf,
        "bench"
            | "shards"
            | "jobs"
            | "iters"
            | "threads"
            | "system_errors"
            | "data_bytes"
            | "access_slots"
            // c11_multi_tenant: the whole run is simulated, so its
            // population, traffic shape and directory accounting are
            // exact on every host.
            | "processes"
            | "services"
            | "wave_size"
            | "waves"
            | "requests"
            | "req_top1"
            | "req_top8"
            | "objects_created"
            | "capacity_used"
            | "live_peak"
            | "live_final"
            | "leaf_pages_peak"
            | "leaf_pages_final"
            | "reclaimed"
            // c5_gc: the populations are fixed by the harness and the
            // collector must reclaim exactly the lost one at every
            // shard width, on every host.
            | "live"
            | "garbage"
            | "gc_errors"
            // c7_port: the port configuration and workload shape are
            // structural; the wall-clock throughputs stay
            // host-dependent.
            | "pairs"
            | "capacity"
            | "messages_per_producer"
            // c13_filing: the whole protocol is simulated, so the
            // request, transfer, device and swap accounting is exact
            // on every host; only the wall-clock points stay
            // host-dependent.
            | "clients"
            | "files"
            | "ops_per_client"
            | "workers"
            | "requests_served"
            | "bytes_moved"
            | "device_errors"
            | "protocol_errors"
            | "device_completions"
            | "swap_outs"
            | "swap_ins"
    )
}

fn load(path: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut flat = BTreeMap::new();
    flatten("", &doc, &mut flat);
    Ok(flat)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = argv.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0u32;
    let mut warnings = 0u32;
    let mut matched = 0u32;
    let keys: std::collections::BTreeSet<&String> = baseline.keys().chain(fresh.keys()).collect();
    for key in keys {
        let exact = is_deterministic(key);
        match (baseline.get(key), fresh.get(key)) {
            (Some(b), Some(f)) if b == f => matched += 1,
            (Some(b), Some(f)) => {
                let drift = if let (Leaf::Num(bn), Leaf::Num(fn_)) = (b, f) {
                    if *bn != 0.0 {
                        format!(" ({:+.1}%)", (fn_ - bn) / bn * 100.0)
                    } else {
                        String::new()
                    }
                } else {
                    String::new()
                };
                if exact {
                    failures += 1;
                    eprintln!("FAIL {key}: baseline {b} != fresh {f}{drift} (deterministic)");
                } else {
                    warnings += 1;
                    println!("warn {key}: baseline {b} -> fresh {f}{drift} (host-dependent)");
                }
            }
            (only_b, only_f) => {
                let (side, val) = if only_b.is_some() {
                    ("only in baseline", only_b)
                } else {
                    ("only in fresh", only_f)
                };
                if exact {
                    failures += 1;
                    eprintln!("FAIL {key}: {side} ({})", val.expect("one side present"));
                } else {
                    warnings += 1;
                    println!("warn {key}: {side} ({})", val.expect("one side present"));
                }
            }
        }
    }

    println!(
        "bench_diff {baseline_path} vs {fresh_path}: {matched} matched, \
         {warnings} host-dependent drift(s), {failures} deterministic failure(s)"
    );
    if failures > 0 {
        eprintln!(
            "deterministic bench values drifted — the interpreter or cost model changed; \
             regenerate the baseline deliberately if that was intended"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
