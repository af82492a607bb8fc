//! Workspace-wide call graph over the flattened token streams.
//!
//! The extractor walks every scanned file once, recording each function
//! item (free functions, inherent methods, trait methods with default
//! bodies) together with the call sites inside its body. Resolution is
//! *name-based and conservative*: a `self.m(…)` call inside an `impl T`
//! resolves to `T::m` when `T` defines it, a `Type::f(…)` path call
//! resolves by `(type, name)`, a qualified free call `mod::f(…)` resolves
//! to free functions whose module path contains the qualifier, and a bare
//! `.m(…)` method call — the trait-dispatch case this analysis cannot
//! type — resolves to *every* workspace method named `m`. Over-linking is
//! deliberate: the downstream passes (taint, hot-path reachability) treat
//! an edge as "may call", so false edges cost precision, never soundness.
//!
//! Two structural facts prune the worst of the over-linking without
//! giving up soundness. A cross-crate call can only target a `pub` item
//! (an unrestricted `pub` — `pub(crate)` and friends are crate-internal),
//! and it can only land in a crate the caller's sources actually name
//! (`use tango_trace::…` / `tango_trace::…` paths / `extern crate`): a
//! crate that never names `tango_dataplane` cannot call into it, however
//! many method names they share — and a local or field spelled `tango`
//! names no crate. Both facts are exact in Rust's module system, so
//! edges removed by them are impossible, not merely unlikely.
//!
//! Scope: only files under `crates/*/src/` join the graph. Integration
//! tests, benches, and examples exercise the deterministic crates from
//! the outside and would otherwise pollute name-based resolution with
//! harness helpers; `#[cfg(test)]` / `#[test]` functions are likewise
//! excluded.

use crate::scan::{FileScan, FlatToken, TokKind};
use proc_macro2::Delimiter;
use std::collections::BTreeMap;
use std::ops::Range;

/// One function definition found in the workspace.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the file (into the slice handed to [`build`]).
    pub file: usize,
    /// Repo-relative path of the defining file.
    pub path: String,
    /// Module path derived from the file path plus inline `mod` items,
    /// e.g. `["sim", "engine"]`.
    pub module: Vec<String>,
    /// The `impl`/`trait` self type, for methods.
    pub self_ty: Option<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (inside the braces, exclusive of
    /// the delimiters themselves).
    pub body: Range<usize>,
    /// Declared with an unrestricted `pub` (so visible cross-crate;
    /// `pub(crate)`/`pub(super)`/`pub(in …)` count as private here).
    pub is_pub: bool,
    /// Defined inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Call sites inside the body (nested fn bodies excluded).
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// Human-readable qualified name, e.g. `sim::engine::ShardState::dispatch`.
    pub fn qname(&self) -> String {
        let mut q = self.module.join("::");
        if let Some(ty) = &self.self_ty {
            if !q.is_empty() {
                q.push_str("::");
            }
            q.push_str(ty);
        }
        if !q.is_empty() {
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// The path segment immediately before `::name`, if any (`thread` in
    /// `thread::spawn`, `Self`, `Instant`). `None` for bare and method
    /// calls.
    pub qualifier: Option<String>,
    /// Was this a `.name(…)` method call?
    pub is_method: bool,
    /// Was the receiver literally `self` (`self.name(…)`)?
    pub recv_self: bool,
    /// 1-based line of the callee name token.
    pub line: u32,
}

/// The resolved graph: functions plus may-call edges.
pub struct CallGraph {
    /// Every non-test function in callgraph scope.
    pub fns: Vec<FnDef>,
    /// Forward edges per function: `(callee fn index, call line)`.
    pub edges: Vec<Vec<(usize, u32)>>,
}

impl CallGraph {
    /// Reverse adjacency: for each function, `(caller, call line)`.
    pub fn reverse_edges(&self) -> Vec<Vec<(usize, u32)>> {
        let mut rev = vec![Vec::new(); self.fns.len()];
        for (caller, outs) in self.edges.iter().enumerate() {
            for &(callee, line) in outs {
                rev[callee].push((caller, line));
            }
        }
        rev
    }

    /// Forward BFS from `roots`; returns, for each reached function, the
    /// `(parent fn, call line in parent)` edge it was first reached
    /// through (`None` for roots themselves). Unreached functions map to
    /// no entry.
    pub fn reach_forward(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, u32)>> {
        let mut seen: BTreeMap<usize, Option<(usize, u32)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &(callee, line) in &self.edges[f] {
                seen.entry(callee).or_insert_with(|| {
                    queue.push_back(callee);
                    Some((f, line))
                });
            }
        }
        seen
    }

    /// The chain of qualified names from a root down to `target`, given a
    /// parent map from [`CallGraph::reach_forward`]. Includes both ends.
    pub fn chain_to(
        &self,
        parents: &BTreeMap<usize, Option<(usize, u32)>>,
        target: usize,
    ) -> Vec<usize> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(Some((parent, _))) = parents.get(&cur) {
            chain.push(*parent);
            cur = *parent;
        }
        chain.reverse();
        chain
    }
}

/// Does this repo-relative path join the call graph? (Library sources of
/// workspace crates only — see the module docs.)
pub fn in_graph_scope(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    let _crate_name = parts.next();
    matches!(parts.next(), Some("src"))
}

/// Module path for a file: `crates/sim/src/engine.rs` → `["sim", "engine"]`,
/// `crates/sim/src/lib.rs` → `["sim"]`, `crates/lint/src/rules/mod.rs` →
/// `["lint", "rules"]`.
fn module_of(path: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Some(rest) = path.strip_prefix("crates/") else {
        return out;
    };
    let parts: Vec<&str> = rest.split('/').collect();
    if parts.len() < 2 {
        return out;
    }
    out.push(parts[0].to_string());
    for (i, part) in parts.iter().enumerate().skip(2) {
        let last = i == parts.len() - 1;
        if last {
            let stem = part.trim_end_matches(".rs");
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_string());
            }
        } else {
            out.push(part.to_string());
        }
    }
    out
}

/// Keywords that look like calls when followed by `(` but are not.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
    "unsafe", "await", "break", "continue", "where", "impl", "dyn",
];

/// Build the call graph over `files` (`(path, scan)` pairs, in the order
/// diagnostics reference them by index).
pub fn build(files: &[(String, &FileScan)]) -> CallGraph {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut crate_refs: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();
    for (idx, (path, scan)) in files.iter().enumerate() {
        if !in_graph_scope(path) {
            continue;
        }
        let close_of = match_table(&scan.tokens);
        let mut ex = Extractor {
            toks: &scan.tokens,
            close_of: &close_of,
            file: idx,
            path,
            fns: &mut fns,
        };
        let end = scan.tokens.len();
        let module = module_of(path);
        ex.walk(0..end, &module, None);
        if let Some(this_crate) = module.first() {
            let refs = crate_refs.entry(this_crate.clone()).or_default();
            refs.extend(named_crates(&scan.tokens));
        }
    }
    resolve(fns, &crate_refs)
}

/// The sibling crates a file can name, by callgraph module root (`sim`
/// for `tango_sim`, `core` for the bare `tango`). Only three token shapes
/// name an extern crate: a path head (`tango_sim::…`), anything inside a
/// `use` item (`use tango_sim;`, `use {tango_sim as s, …};`) and
/// `extern crate tango_sim;`. A local, field or struct-literal key that
/// happens to be spelled `tango` names nothing — counting those linked
/// `tango-dataplane` to the core crate, which depends on it.
fn named_crates(toks: &[FlatToken]) -> Vec<String> {
    let colon = |i: usize| matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(':')));
    let mut out = Vec::new();
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(';') => in_use = false,
            TokKind::Ident if t.text == "use" => in_use = true,
            TokKind::Ident if t.text == "tango" || t.text.starts_with("tango_") => {
                let path_head = colon(i + 1) && colon(i + 2);
                let extern_crate = i >= 1 && toks[i - 1].text == "crate";
                if path_head || in_use || extern_crate {
                    let root = t.text.strip_prefix("tango_").unwrap_or("core");
                    out.push(root.to_string());
                }
            }
            _ => {}
        }
    }
    out
}

/// For each `Open` token index, the index of its matching `Close`.
fn match_table(toks: &[FlatToken]) -> Vec<usize> {
    let mut close_of = vec![0usize; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open(_) => stack.push(i),
            TokKind::Close(_) => {
                if let Some(open) = stack.pop() {
                    close_of[open] = i;
                }
            }
            _ => {}
        }
    }
    close_of
}

struct Extractor<'a> {
    toks: &'a [FlatToken],
    close_of: &'a [usize],
    file: usize,
    path: &'a str,
    fns: &'a mut Vec<FnDef>,
}

impl Extractor<'_> {
    /// Linear scan of `range`, recursing into `mod`/`impl`/`trait`/`fn`
    /// constructs to track context. All other tokens are stepped over
    /// one by one, so items nested inside blocks are still found.
    fn walk(&mut self, range: Range<usize>, module: &[String], self_ty: Option<&str>) {
        let mut i = range.start;
        while i < range.end {
            let tok = &self.toks[i];
            if !matches!(tok.kind, TokKind::Ident) {
                i += 1;
                continue;
            }
            match tok.text.as_str() {
                "mod" => {
                    // `mod name { … }` — recurse with the name appended;
                    // `mod name;` declares an out-of-line module (its file
                    // is scanned separately).
                    if let (Some(name_tok), Some(body_tok)) =
                        (self.toks.get(i + 1), self.toks.get(i + 2))
                    {
                        if matches!(name_tok.kind, TokKind::Ident)
                            && matches!(body_tok.kind, TokKind::Open(Delimiter::Brace))
                        {
                            let close = self.close_of[i + 2];
                            let mut inner = module.to_vec();
                            inner.push(name_tok.text.clone());
                            self.walk(i + 3..close, &inner, None);
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                "impl" | "trait" => {
                    // Parse the header up to the body brace, extracting
                    // the self type (after `for` when present).
                    if let Some((ty, body_open)) = self.impl_header(i + 1, range.end) {
                        let close = self.close_of[body_open];
                        self.walk(body_open + 1..close, module, ty.as_deref());
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                "fn" => {
                    if let Some(next) = self.toks.get(i + 1) {
                        if matches!(next.kind, TokKind::Ident) {
                            if let Some(consumed) = self.fn_item(i, range.end, module, self_ty) {
                                i = consumed;
                                continue;
                            }
                        }
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Parse an `impl`/`trait` header starting after the keyword. Returns
    /// the self type name and the index of the body's opening brace, or
    /// `None` for headers without a body in range.
    fn impl_header(&self, start: usize, end: usize) -> Option<(Option<String>, usize)> {
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut j = start;
        while j < end {
            let t = &self.toks[j];
            match &t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    let arrow = j > 0
                        && matches!(
                            self.toks[j - 1].kind,
                            TokKind::Punct('-') | TokKind::Punct('=')
                        );
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokKind::Punct(';') if angle == 0 => return None,
                TokKind::Open(Delimiter::Brace) if angle == 0 => {
                    let ty = if saw_for { after_for } else { last_ident };
                    return Some((ty, j));
                }
                TokKind::Open(_) => {
                    j = self.close_of[j] + 1;
                    continue;
                }
                TokKind::Ident if t.text == "for" && angle == 0 => saw_for = true,
                TokKind::Ident if t.text == "where" && angle == 0 => {
                    // Bounds only from here on; type name already seen.
                }
                TokKind::Ident if angle == 0 => {
                    if saw_for {
                        after_for = Some(t.text.clone());
                    } else {
                        last_ident = Some(t.text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Parse one `fn` item starting at the `fn` keyword index. Records
    /// the function (and, recursively, nested fns) and returns the token
    /// index just past the item.
    fn fn_item(
        &mut self,
        fn_idx: usize,
        end: usize,
        module: &[String],
        self_ty: Option<&str>,
    ) -> Option<usize> {
        let name_tok = &self.toks[fn_idx + 1];
        let name = name_tok.text.clone();
        let mut j = fn_idx + 2;
        let mut angle = 0i32;
        let mut saw_params = false;
        // Scan the signature: skip generics (angle-tracked), find the
        // parameter parens, then the body brace or a terminating `;`.
        while j < end {
            let t = &self.toks[j];
            match &t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    let arrow = matches!(
                        self.toks[j - 1].kind,
                        TokKind::Punct('-') | TokKind::Punct('=')
                    );
                    if !arrow {
                        angle -= 1;
                    }
                }
                TokKind::Punct(';') if angle == 0 && saw_params => {
                    // Trait method signature without a body.
                    return Some(j + 1);
                }
                TokKind::Open(Delimiter::Parenthesis) if angle == 0 && !saw_params => {
                    saw_params = true;
                    j = self.close_of[j] + 1;
                    continue;
                }
                TokKind::Open(Delimiter::Brace) if angle == 0 && saw_params => {
                    let close = self.close_of[j];
                    let body = j + 1..close;
                    // Find nested fn items first, so their ranges can be
                    // excluded from this fn's call sites.
                    let before = self.fns.len();
                    self.walk(body.clone(), module, None);
                    let nested: Vec<Range<usize>> =
                        self.fns[before..].iter().map(|f| f.body.clone()).collect();
                    let calls = extract_calls(self.toks, body.clone(), &nested);
                    self.fns.push(FnDef {
                        file: self.file,
                        path: self.path.to_string(),
                        module: module.to_vec(),
                        self_ty: self_ty.map(str::to_string),
                        name,
                        line: self.toks[fn_idx].line,
                        is_pub: self.is_pub_fn(fn_idx),
                        is_test: self.toks[j].in_test,
                        body,
                        calls,
                    });
                    return Some(close + 1);
                }
                TokKind::Open(_) => {
                    j = self.close_of[j] + 1;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Is the `fn` at `fn_idx` declared with an unrestricted `pub`?
    /// Walks back over modifier tokens (`unsafe`, `async`, `const`,
    /// `extern "C"`). A `pub(crate)`-style restriction group means the
    /// item is crate-internal, which is all the cross-crate edge filter
    /// cares about.
    fn is_pub_fn(&self, fn_idx: usize) -> bool {
        let mut k = fn_idx;
        while k > 0 {
            let prev = &self.toks[k - 1];
            match &prev.kind {
                TokKind::Ident if prev.text == "pub" => return true,
                TokKind::Ident
                    if matches!(prev.text.as_str(), "unsafe" | "async" | "const" | "extern") =>
                {
                    k -= 1;
                }
                // The "C" in `extern "C" fn`.
                TokKind::Literal => k -= 1,
                _ => return false,
            }
        }
        false
    }
}

/// Collect call sites in `body`, skipping any `exclude` subranges
/// (nested fn bodies — their calls belong to the nested fn).
fn extract_calls(
    toks: &[FlatToken],
    body: Range<usize>,
    exclude: &[Range<usize>],
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        if let Some(r) = exclude.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let tok = &toks[i];
        if !matches!(tok.kind, TokKind::Ident) || CALL_KEYWORDS.contains(&tok.text.as_str()) {
            i += 1;
            continue;
        }
        // `name (…)` directly, or `name::<T> (…)` with a turbofish.
        let paren_at = if matches!(
            toks.get(i + 1).map(|t| &t.kind),
            Some(TokKind::Open(Delimiter::Parenthesis))
        ) {
            Some(i + 1)
        } else if matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct(':')))
            && matches!(toks.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct(':')))
            && matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Punct('<')))
        {
            // Walk the turbofish to its matching `>`.
            let mut angle = 0i32;
            let mut k = i + 3;
            let mut found = None;
            while k < body.end {
                match &toks[k].kind {
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') => {
                        angle -= 1;
                        if angle == 0 {
                            found = Some(k + 1);
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            found.filter(|&k| {
                matches!(
                    toks.get(k).map(|t| &t.kind),
                    Some(TokKind::Open(Delimiter::Parenthesis))
                )
            })
        } else {
            None
        };
        let Some(_paren) = paren_at else {
            i += 1;
            continue;
        };
        // A definition (`fn name(`) is not a call; nested fn bodies are
        // excluded above, but the signature tokens are not.
        if i >= 1 && matches!(&toks[i - 1].kind, TokKind::Ident if toks[i - 1].text == "fn") {
            i += 1;
            continue;
        }
        let is_method = i >= 1 && matches!(toks[i - 1].kind, TokKind::Punct('.'));
        let recv_self = is_method
            && i >= 2
            && matches!(&toks[i - 2].kind, TokKind::Ident if toks[i - 2].text == "self")
            && !(i >= 3 && matches!(toks[i - 3].kind, TokKind::Punct('.')));
        let qualifier = if !is_method
            && i >= 3
            && matches!(toks[i - 1].kind, TokKind::Punct(':'))
            && matches!(toks[i - 2].kind, TokKind::Punct(':'))
        {
            match &toks[i - 3].kind {
                TokKind::Ident => Some(toks[i - 3].text.clone()),
                // `Vec::<u8>::new(…)` — generic path segment; resolution
                // falls back to by-name.
                _ => Some(String::from("<path>")),
            }
        } else {
            None
        };
        out.push(CallSite {
            name: tok.text.clone(),
            qualifier,
            is_method,
            recv_self,
            line: tok.line,
        });
        i += 1;
    }
    out
}

/// Turn extracted definitions into a resolved graph. Test functions are
/// dropped entirely — they neither resolve as callees nor contribute
/// call sites. Cross-crate candidate edges are kept only when the callee
/// is `pub` and the caller's crate names the callee's crate somewhere in
/// its sources (see the module docs).
fn resolve(
    all: Vec<FnDef>,
    crate_refs: &BTreeMap<String, std::collections::BTreeSet<String>>,
) -> CallGraph {
    let fns: Vec<FnDef> = all.into_iter().filter(|f| !f.is_test).collect();
    let mut by_name_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_name_free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_ty_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        match &f.self_ty {
            Some(ty) => {
                by_name_method.entry(&f.name).or_default().push(i);
                by_ty_method.entry((ty, &f.name)).or_default().push(i);
            }
            None => by_name_free.entry(&f.name).or_default().push(i),
        }
    }
    let empty: Vec<usize> = Vec::new();
    let mut edges: Vec<Vec<(usize, u32)>> = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut out: Vec<(usize, u32)> = Vec::new();
        for call in &f.calls {
            let targets: Vec<usize> = if call.is_method {
                if call.recv_self {
                    if let Some(ty) = &f.self_ty {
                        match by_ty_method.get(&(ty.as_str(), call.name.as_str())) {
                            // `self.m(…)` and the impl type defines `m`:
                            // precise.
                            Some(v) => v.clone(),
                            // Otherwise a trait-default or deref call:
                            // conservative, all methods named `m`.
                            None => by_name_method
                                .get(call.name.as_str())
                                .unwrap_or(&empty)
                                .clone(),
                        }
                    } else {
                        by_name_method
                            .get(call.name.as_str())
                            .unwrap_or(&empty)
                            .clone()
                    }
                } else {
                    // Unknown receiver (possibly trait dispatch): every
                    // workspace method with this name may be the callee.
                    by_name_method
                        .get(call.name.as_str())
                        .unwrap_or(&empty)
                        .clone()
                }
            } else if let Some(q) = &call.qualifier {
                let q = if q == "Self" {
                    f.self_ty.clone().unwrap_or_else(|| q.clone())
                } else {
                    q.clone()
                };
                if q == "<path>" {
                    let mut v = by_name_method
                        .get(call.name.as_str())
                        .unwrap_or(&empty)
                        .clone();
                    v.extend(by_name_free.get(call.name.as_str()).unwrap_or(&empty));
                    v
                } else if q.chars().next().is_some_and(char::is_uppercase) {
                    by_ty_method
                        .get(&(q.as_str(), call.name.as_str()))
                        .unwrap_or(&empty)
                        .clone()
                } else {
                    // `module::f(…)`: free fns whose module path contains
                    // the qualifier segment.
                    by_name_free
                        .get(call.name.as_str())
                        .unwrap_or(&empty)
                        .iter()
                        .copied()
                        .filter(|&t| fns[t].module.contains(&q))
                        .collect()
                }
            } else {
                // Bare call: prefer same-file free fns, then same-crate,
                // then any.
                let cands = by_name_free.get(call.name.as_str()).unwrap_or(&empty);
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&t| fns[t].file == f.file)
                    .collect();
                if !same_file.is_empty() {
                    same_file
                } else {
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&t| fns[t].module.first() == f.module.first())
                        .collect();
                    if !same_crate.is_empty() {
                        same_crate
                    } else {
                        cands.clone()
                    }
                }
            };
            let caller_crate = f.module.first();
            for t in targets {
                let callee = &fns[t];
                if callee.module.first() != caller_crate {
                    if !callee.is_pub {
                        continue;
                    }
                    let named = caller_crate
                        .and_then(|c| crate_refs.get(c))
                        .zip(callee.module.first())
                        .is_some_and(|(refs, cc)| refs.contains(cc));
                    if !named {
                        continue;
                    }
                }
                if !out.iter().any(|&(e, _)| e == t) {
                    out.push((t, call.line));
                }
            }
        }
        edges.push(out);
    }
    CallGraph { fns, edges }
}
