//! Every public item has a caller.
//!
//! Scans every `pub` fn, struct, enum, trait, const, static and type
//! alias under `crates/*/src` and fails, naming `file:line item`, for
//! each one that nothing calls. `pub(crate)` and narrower items are left
//! to rustc's `dead_code` lint, which the clippy gate runs with
//! `-D warnings`.
//!
//! A caller is a mention of the item's name, as a whole identifier in
//! code, in any file under `crates/`, `tests/`, `examples/` or
//! `perfbench/src/` other than the item's own file. Comments (doc
//! comments included) and the contents of string and char literals are
//! not code. In the item's own file a mention counts only outside
//! `#[cfg(test)]` code and outside the item's own definition; a type's
//! definition includes the `impl` blocks whose self type it is.
//!
//! The scan is word-level: a name shared by two items keeps both alive.
//! So it can miss a dead item, but an item it reports has no caller. An item may stay uncalled only through [`ALLOWLIST`], with a
//! reason that names a caller the scan cannot see or a paper claim.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(item, reason)`: public items the scan reports as uncalled that stay
/// public anyway. `item` is the crate and module path plus the name, as
/// the failure message prints it.
const ALLOWLIST: &[(&str, &str)] = &[(
    "si_core::firstgen::FirstGenCell",
    "the first-generation baseline behind the paper's case for second-generation \
     cells (ref. [9]): `first_gen_delay_line_is_less_accurate_than_second_gen` \
     shows its mirror-ratio gain error dwarfs the class-AB cell's",
)];

/// The directories whose `.rs` files may call a public item.
const CALLER_ROOTS: &[&str] = &["crates", "tests", "examples", "perfbench/src"];

#[test]
fn every_public_item_has_a_caller() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in CALLER_ROOTS {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(&root)
                .expect("scanned file sits under the repository root");
            let text = fs::read_to_string(path).expect("read source file");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect();
    assert!(
        sources
            .iter()
            .any(|(path, _)| path == "crates/analog/src/lib.rs"),
        "the scan found no workspace sources under {}",
        root.display()
    );

    let uncalled = uncalled_items(&sources);
    let allowed: HashMap<&str, &str> = ALLOWLIST.iter().copied().collect();
    let mut problems = Vec::new();
    for item in &uncalled {
        if !allowed.contains_key(item.path.as_str()) {
            problems.push(format!("{}:{} {}", item.file, item.line, item.path));
        }
    }
    let uncalled_paths: HashSet<&str> = uncalled.iter().map(|item| item.path.as_str()).collect();
    for (item, reason) in ALLOWLIST {
        if reason.trim().is_empty() {
            problems.push(format!("allowlist entry {item} gives no reason"));
        }
        if !uncalled_paths.contains(item) {
            problems.push(format!(
                "allowlist entry {item} has a caller or no longer exists; remove the entry"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "{} public item(s) without a caller; delete each, narrow it to \
         pub(crate), or give a reason in ALLOWLIST:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

/// A public declaration that no caller names.
#[derive(Debug)]
struct Uncalled {
    file: String,
    line: usize,
    /// Crate and module path plus the item's name, e.g. `si_dsp::fft::fft`.
    path: String,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read directory entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The public items under `crates/*/src` among `sources` (`(path, text)`
/// pairs, paths relative to the repository root) that have no caller.
fn uncalled_items(sources: &[(String, String)]) -> Vec<Uncalled> {
    let files: Vec<Scanned> = sources
        .iter()
        .map(|(path, text)| Scanned::new(path, text))
        .collect();
    // For each name, the indices of the files that mention it.
    let mut mentioned_in: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (index, file) in files.iter().enumerate() {
        for (name, _) in &file.idents {
            mentioned_in.entry(name).or_default().insert(index);
        }
    }

    let mut uncalled = Vec::new();
    for (index, file) in files.iter().enumerate() {
        let Some(module) = module_path(&file.path) else {
            continue;
        };
        for decl in file.public_decls() {
            let elsewhere = mentioned_in[decl.name].iter().any(|&other| other != index);
            if elsewhere || file.used_locally(&decl) {
                continue;
            }
            uncalled.push(Uncalled {
                file: file.path.clone(),
                line: file.line_of(decl.name_at),
                path: format!("{module}::{}", decl.name),
            });
        }
    }
    uncalled
}

/// `crates/analog/src/device/mos.rs` → `si_analog::device::mos`; `None`
/// for files outside `crates/*/src`.
fn module_path(file: &str) -> Option<String> {
    let rest = file.strip_prefix("crates/")?;
    let (krate, rest) = rest.split_once('/')?;
    let rest = rest.strip_prefix("src/")?.strip_suffix(".rs")?;
    let mut path = vec![format!("si_{krate}")];
    for part in rest.split('/') {
        if !matches!(part, "lib" | "mod") {
            path.push(part.to_string());
        }
    }
    Some(path.join("::"))
}

/// A public declaration found in a file.
struct Decl<'a> {
    name: &'a str,
    /// Byte offset of the name in the file.
    name_at: usize,
    /// Byte range of the whole definition, `pub` to its closing `}` or `;`
    /// (for a type, also each `impl` block whose self type it is).
    spans: Vec<(usize, usize)>,
}

/// One source file, reduced to its code.
struct Scanned {
    path: String,
    /// The text with comments and literal contents blanked to spaces, so
    /// byte offsets and line numbers still match the file.
    code: Vec<u8>,
    /// Every identifier in `code`, with its byte offset.
    idents: Vec<(String, usize)>,
    /// Byte ranges of `#[cfg(test)]` items.
    test_spans: Vec<(usize, usize)>,
}

impl Scanned {
    fn new(path: &str, text: &str) -> Self {
        let code = blank_non_code(text.as_bytes());
        let idents = identifiers(&code);
        let test_spans = cfg_test_spans(&code);
        Scanned {
            path: path.to_string(),
            code,
            idents,
            test_spans,
        }
    }

    fn line_of(&self, at: usize) -> usize {
        1 + self.code[..at].iter().filter(|&&b| b == b'\n').count()
    }

    fn in_test(&self, at: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// Whether the name is mentioned in this file outside test code and
    /// outside the declaration's own definition.
    fn used_locally(&self, decl: &Decl) -> bool {
        self.idents.iter().any(|(name, at)| {
            name == decl.name
                && !self.in_test(*at)
                && !decl.spans.iter().any(|&(s, e)| s <= *at && *at < e)
        })
    }

    /// The `pub` declarations (not `pub(crate)` or narrower) outside test
    /// code. Names built by a macro (`$name`) are skipped.
    fn public_decls(&self) -> Vec<Decl<'_>> {
        let mut decls = Vec::new();
        for (i, (word, at)) in self.idents.iter().enumerate() {
            if word != "pub" || self.in_test(*at) || self.next_byte(at + 3) == Some(b'(') {
                continue;
            }
            let mut j = i + 1;
            while j < self.idents.len()
                && matches!(
                    self.idents[j].0.as_str(),
                    "const" | "async" | "unsafe" | "extern"
                )
                && !self.is_kind_keyword_before_name(j)
            {
                j += 1;
            }
            let Some((kind, _)) = self.idents.get(j) else {
                continue;
            };
            if !matches!(
                kind.as_str(),
                "fn" | "struct" | "enum" | "trait" | "const" | "static" | "type" | "union"
            ) {
                continue;
            }
            let mut k = j + 1;
            if kind == "static" && self.idents.get(k).is_some_and(|(w, _)| w == "mut") {
                k += 1;
            }
            let Some((name, name_at)) = self.idents.get(k) else {
                continue;
            };
            // A name built by a macro is `$name`: not a real identifier.
            if *name_at > 0 && self.code[name_at - 1] == b'$' {
                continue;
            }
            let braced = matches!(kind.as_str(), "fn" | "struct" | "enum" | "trait" | "union");
            let end = item_end(&self.code, name_at + name.len(), braced);
            let mut spans = vec![(*at, end)];
            if matches!(kind.as_str(), "struct" | "enum" | "union" | "type") {
                spans.extend(self.impl_spans_of(name));
            }
            decls.push(Decl {
                name,
                name_at: *name_at,
                spans,
            });
        }
        decls
    }

    /// `const` in `pub const fn` is a qualifier; in `pub const NAME` it
    /// is the item's kind. This tells the two apart.
    fn is_kind_keyword_before_name(&self, j: usize) -> bool {
        self.idents[j].0 == "const"
            && self
                .idents
                .get(j + 1)
                .is_some_and(|(w, _)| !matches!(w.as_str(), "fn" | "unsafe" | "async" | "extern"))
    }

    fn next_byte(&self, from: usize) -> Option<u8> {
        self.code[from..]
            .iter()
            .copied()
            .find(|b| !b.is_ascii_whitespace())
    }

    /// The byte ranges of the `impl` blocks in this file whose self type
    /// is `name` (`impl Name`, `impl<T> Name<T>`, `impl Trait for Name`).
    fn impl_spans_of(&self, name: &str) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        for (i, (word, at)) in self.idents.iter().enumerate() {
            if word != "impl" {
                continue;
            }
            let Some(open) = self.code[*at..]
                .iter()
                .position(|&b| b == b'{' || b == b';')
            else {
                continue;
            };
            let open = at + open;
            if self.code[open] != b'{' {
                continue;
            }
            let header: Vec<&str> = self.idents[i + 1..]
                .iter()
                .take_while(|(_, a)| *a < open)
                .map(|(w, _)| w.as_str())
                .collect();
            let self_type = match header.iter().rposition(|w| *w == "for") {
                Some(for_at) => header.get(for_at + 1),
                None => first_type_after_generics(&self.code[at + 4..open])
                    .and_then(|t| header.iter().find(|w| **w == t)),
            };
            if self_type.is_some_and(|t| *t == name) {
                spans.push((*at, item_end(&self.code, open, true)));
            }
        }
        spans
    }
}

/// The first identifier of an `impl` header after its generic parameter
/// list: `<T: Copy> Name<T>` → `Name`.
fn first_type_after_generics(header: &[u8]) -> Option<&str> {
    let mut depth = 0usize;
    let mut i = 0;
    while i < header.len() {
        match header[i] {
            b'<' => depth += 1,
            b'>' => depth = depth.saturating_sub(1),
            b if depth == 0 && is_ident_start(b) => {
                let end = header[i..]
                    .iter()
                    .position(|&b| !is_ident_byte(b))
                    .map_or(header.len(), |n| i + n);
                return std::str::from_utf8(&header[i..end]).ok();
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The end of the item whose header continues at `from`: past the
/// matching `}` of its first top-level `{` when `braced` (a `;` first
/// ends a unit or tuple struct), else past the first top-level `;`.
fn item_end(code: &[u8], from: usize, braced: bool) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < code.len() {
        match code[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'{' if braced && depth == 0 => return matching_close(code, i),
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// One past the `}` matching the `{` at `open`.
fn matching_close(code: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in code.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// The byte ranges of the items that `#[cfg(test)]` gates: from the
/// attribute to the item's closing `}` or `;`.
fn cfg_test_spans(code: &[u8]) -> Vec<(usize, usize)> {
    const ATTR: &[u8] = b"#[cfg(test)]";
    let mut spans = Vec::new();
    let mut i = 0;
    while let Some(found) = code[i..].windows(ATTR.len()).position(|w| w == ATTR) {
        let start = i + found;
        let end = item_end(code, start + ATTR.len(), true);
        spans.push((start, end));
        i = end;
    }
    spans
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier in `code` with its byte offset. Number literals
/// (`1e-9`, `0x1f`) are skipped whole.
fn identifiers(code: &[u8]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let b = code[i];
        if is_ident_byte(b) {
            let start = i;
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
            if is_ident_start(b) {
                let word = String::from_utf8_lossy(&code[start..i]).into_owned();
                out.push((word, start));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Restores in `out` the identifiers that the string body `src[from..to]`
/// captures as inline format arguments (`"{name}"`, `"{name:>8}"`): those
/// are uses in code. An escaped `{{` captures nothing.
fn keep_format_captures(src: &[u8], out: &mut [u8], from: usize, to: usize) {
    let mut i = from;
    while i < to {
        if src[i] == b'{' && src.get(i + 1) == Some(&b'{') {
            i += 2;
        } else if src[i] == b'{' && src.get(i + 1).is_some_and(|&b| is_ident_start(b)) {
            let start = i + 1;
            let end = start
                + src[start..to]
                    .iter()
                    .take_while(|&&b| is_ident_byte(b))
                    .count();
            out[start..end].copy_from_slice(&src[start..end]);
            i = end;
        } else {
            i += 1;
        }
    }
}

/// `src` with every comment and the contents of every string and char
/// literal replaced by spaces (bar inline format captures); newlines are
/// kept, so offsets and line numbers carry over.
fn blank_non_code(src: &[u8]) -> Vec<u8> {
    let mut out = src.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for b in &mut out[from..to.min(src.len())] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    let mut i = 0;
    while i < src.len() {
        // `r"` opens a raw string unless the `r` ends a longer word
        // (`br"` is a raw byte string).
        let raw_ok = i == 0
            || !is_ident_byte(src[i - 1])
            || (src[i - 1] == b'b' && (i < 2 || !is_ident_byte(src[i - 2])));
        match src[i] {
            b'/' if src.get(i + 1) == Some(&b'/') => {
                let end = src[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(src.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if src.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                let mut j = i;
                while j < src.len() {
                    if src[j..].starts_with(b"/*") {
                        depth += 1;
                        j += 2;
                    } else if src[j..].starts_with(b"*/") {
                        depth -= 1;
                        j += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'r' if raw_ok && matches!(src.get(i + 1), Some(b'"' | b'#')) => {
                let hashes = src[i + 1..].iter().take_while(|&&b| b == b'#').count();
                if src.get(i + 1 + hashes) != Some(&b'"') {
                    // A raw identifier (`r#type`), not a raw string.
                    i += 1 + hashes;
                    continue;
                }
                let body = i + 2 + hashes;
                let mut closing = vec![b'"'];
                closing.extend(std::iter::repeat_n(b'#', hashes));
                let end = src[body..]
                    .windows(closing.len())
                    .position(|w| w == closing.as_slice())
                    .map_or(src.len(), |n| body + n + closing.len());
                blank(&mut out, i + 1, end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < src.len() && src[j] != b'"' {
                    j += if src[j] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out, i, j + 1);
                keep_format_captures(src, &mut out, i + 1, j);
                i = j + 1;
            }
            b'\'' => {
                // A char literal closes within a few bytes; a lifetime
                // (`'a`) or a label does not.
                let close = if src.get(i + 1) == Some(&b'\\') {
                    src.get(i + 3..)
                        .and_then(|rest| rest.iter().take(10).position(|&b| b == b'\''))
                        .map(|n| i + 3 + n)
                } else {
                    let width = src
                        .get(i + 1)
                        .map_or(1, |&b| (b.leading_ones() as usize).max(1));
                    (src.get(i + 1 + width) == Some(&b'\'')).then_some(i + 1 + width)
                };
                match close {
                    Some(end) => {
                        blank(&mut out, i, end + 1);
                        i = end + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod scanner {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<String> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        let mut names: Vec<String> = uncalled_items(&sources)
            .into_iter()
            .map(|item| item.path)
            .collect();
        names.sort();
        names
    }

    #[test]
    fn reports_an_item_named_only_in_its_own_tests_docs_and_definition() {
        let lib = r#"
/// See [`dead`]; `live` is called below.
pub fn dead(n: u32) -> u32 {
    if n == 0 { 0 } else { dead(n - 1) }
}
pub fn live() -> &'static str { "dead" }
pub(crate) fn narrow() {}
pub struct Lonely { pub x: f64 }
impl Lonely {
    pub fn new() -> Lonely { Lonely { x: 0.0 } }
}
pub const fn helper() -> char { 'x' }
fn private() { let _ = live(); }
#[cfg(test)]
mod tests {
    use super::*;
    pub fn test_only() {}
    #[test]
    fn t() { dead(3); helper(); test_only(); }
}
"#;
        assert_eq!(
            scan(&[("crates/demo/src/lib.rs", lib)]),
            vec![
                "si_demo::Lonely",
                "si_demo::dead",
                "si_demo::helper",
                "si_demo::new"
            ]
        );
    }

    #[test]
    fn a_mention_in_another_file_or_crate_is_a_caller() {
        let lib = "pub fn used_by_example() {}\npub type Alias = u8;\npub static TABLE: [u8; 2] = [1, 2];\n";
        let example = "fn main() { demo::used_by_example(); let _: demo::Alias = demo::TABLE[0]; }";
        assert!(scan(&[
            ("crates/demo/src/lib.rs", lib),
            ("examples/use_it.rs", example)
        ])
        .is_empty());
        // A mention inside a comment or a string is not a call, but an
        // inline format capture is.
        let example = "// used_by_example Alias\nfn main() { let _ = \"TABLE\"; }";
        assert_eq!(
            scan(&[
                ("crates/demo/src/lib.rs", lib),
                ("examples/use_it.rs", example)
            ]),
            vec![
                "si_demo::Alias",
                "si_demo::TABLE",
                "si_demo::used_by_example"
            ]
        );
        let example = r#"fn main() { println!("{TABLE:?} {{Alias}} {}", used_by_example()); }"#;
        assert_eq!(
            scan(&[
                ("crates/demo/src/lib.rs", lib),
                ("examples/use_it.rs", example)
            ]),
            vec!["si_demo::Alias"]
        );
    }
}
