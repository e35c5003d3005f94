//! The `reparse` contract over real kernels: for the edits an editor
//! makes to a generated kernel's printed source and to the raw corpus
//! text (comments included), the function-level re-parse equals a full
//! `parse_program` of the edited text, spans included, and a failure
//! carries the same message.

use ivy::cmir::ast::Program;
use ivy::cmir::parser::{parse_program, reparse, ReparsePath};
use ivy::cmir::pretty::pretty_program;
use ivy::kernelgen::{kernel_source, KernelBuild, KernelConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A base source, its parse, and the byte range of every function item
/// (first token up to the next item's first token).
type Base = (String, Program, Vec<(usize, usize)>);

/// The printed small kernel and the raw corpus text it was generated
/// from.
fn bases() -> &'static [Base] {
    static BASES: OnceLock<Vec<Base>> = OnceLock::new();
    BASES.get_or_init(|| {
        let config = KernelConfig::small();
        [
            pretty_program(&KernelBuild::generate(&config).program),
            kernel_source(&config),
        ]
        .into_iter()
        .map(|src| {
            let program = parse_program(&src).expect("kernel parses");
            let ranges = function_ranges(&src, &program);
            (src, program, ranges)
        })
        .collect()
    })
}

fn function_ranges(src: &str, program: &Program) -> Vec<(usize, usize)> {
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(src.match_indices('\n').map(|(i, _)| i + 1))
        .collect();
    let byte = |line: u32, col: u32| {
        let start = line_starts[line as usize - 1];
        start
            + src[start..]
                .char_indices()
                .nth(col as usize - 1)
                .map_or(src.len() - start, |(i, _)| i)
    };
    program
        .functions
        .iter()
        .map(|f| {
            let start = byte(f.span.start.line, f.span.start.col);
            // The span ends after the next item's first token; the item
            // ends where that token starts.
            let end = byte(f.span.end.line, f.span.end.col);
            let next = src[start..end]
                .rfind(['}', ';'])
                .map_or(end, |i| start + i + 1);
            (start, next)
        })
        .collect()
}

/// The edit kinds an editor makes, and the path each must take when it
/// applies (`None`: whichever path is right for the text).
const KINDS: [(&str, Option<&str>); 8] = [
    ("literal rewrite", Some("function")),
    ("function rename", Some("function")),
    ("inserted statement line", Some("full")),
    ("edit inside a global, struct or typedef", Some("full")),
    ("splice across two functions", None),
    ("whole-function deletion", Some("full")),
    ("edit in a comment between items", None),
    ("syntax error", None),
];

/// Applies edit `kind` at a position chosen by `pick`; `None` when the
/// base has no place for that kind of edit.
fn edit(src: &str, ranges: &[(usize, usize)], kind: usize, pick: u64) -> Option<String> {
    let nth = |n: usize| (pick % n.max(1) as u64) as usize;
    let bodies: Vec<(usize, usize)> = ranges
        .iter()
        .copied()
        .filter(|&(s, e)| src[s..e].ends_with('}'))
        .collect();
    let (start, end) = bodies[nth(bodies.len())];
    let item = &src[start..end];
    let splice = |at: usize, remove: usize, insert: &str| {
        Some(format!("{}{insert}{}", &src[..at], &src[at + remove..]))
    };
    match kind {
        0 => {
            // Every literal that starts a token, in any function body.
            let digits: Vec<usize> = bodies
                .iter()
                .flat_map(|&(s, e)| {
                    src[s..e].char_indices().filter_map(move |(i, c)| {
                        let after_ident = src[..s + i]
                            .chars()
                            .next_back()
                            .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
                        (c.is_ascii_digit() && !after_ident).then_some(s + i)
                    })
                })
                .collect();
            let at = *digits.get(nth(digits.len()))?;
            let len = src[at..]
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(src.len() - at);
            splice(at, len, &format!("{}", 7000 + pick % 1000))
        }
        1 => {
            let at = item.find("fn ")? + 3;
            let len = item[at..].find('(')?;
            splice(start + at + len, 0, "_renamed")
        }
        2 => {
            let at = item.find("{\n")? + 2;
            splice(start + at, 0, "    edit_probe = 1;\n")
        }
        3 => {
            let sites: Vec<usize> = ["\nglobal ", "\nstruct ", "\ntypedef "]
                .iter()
                .flat_map(|kw| src.match_indices(kw).map(|(i, kw)| i + kw.len()))
                .collect();
            let at = *sites.get(nth(sites.len()))?;
            splice(at, 0, "z")
        }
        4 => {
            let i = ranges.iter().position(|&r| r == (start, end))?;
            let &(next_start, next_end) = ranges.get(i + 1)?;
            let from = start + (end - start) / 2;
            let to = next_start + (next_end - next_start) / 2;
            let (from, to) = (floor_boundary(src, from), floor_boundary(src, to));
            splice(from, to - from, "")
        }
        5 => {
            let i = ranges.iter().position(|&r| r == (start, end))?;
            let next = ranges.get(i + 1).map_or(src.len(), |&(s, _)| s);
            splice(start, next - start, "")
        }
        6 => {
            let comments: Vec<usize> = src.match_indices("//").map(|(i, _)| i + 2).collect();
            match comments.get(nth(comments.len())) {
                Some(&at) if !src[at..].starts_with('\n') => splice(at, 0, "#"),
                _ => splice(end, 0, " /* note */"),
            }
        }
        7 => {
            let semis: Vec<usize> = item.match_indices(';').map(|(i, _)| i).collect();
            let at = *semis.get(nth(semis.len()))?;
            splice(start + at, 1, "")
        }
        _ => unreachable!("eight kinds"),
    }
}

fn floor_boundary(src: &str, mut at: usize) -> usize {
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reparse_matches_a_full_parse_on_kernel_edits(
        which in 0usize..2,
        kind in 0usize..8,
        pick in any::<u64>(),
    ) {
        let (base_src, base, ranges) = &bases()[which];
        let Some(src) = edit(base_src, ranges, kind, pick) else {
            return Ok(());
        };
        let (name, expected_path) = KINDS[kind];
        match (parse_program(&src), reparse(base_src, base, &src)) {
            (Ok(full), Ok(re)) => {
                prop_assert!(full == re.program, "{name}: programs differ");
                if let Some(path) = expected_path {
                    prop_assert_eq!(re.path.name(), path, "{}", name);
                }
            }
            (Err(full), Err(re)) => prop_assert_eq!(full.to_string(), re.to_string()),
            (full, re) => prop_assert!(
                false,
                "{name}: full parse {:?} vs reparse {:?}",
                full.err(),
                re.err()
            ),
        }
    }
}

#[test]
fn every_function_of_the_printed_kernel_takes_the_function_path() {
    let (base_src, base, ranges) = &bases()[0];
    for (index, &(start, end)) in ranges.iter().enumerate() {
        let Some(close) = base_src[start..end].rfind('}') else {
            continue;
        };
        // A line-preserving edit just inside the closing brace.
        let at = start + close;
        let src = format!("{} {}", &base_src[..at], &base_src[at..]);
        let re = reparse(base_src, base, &src).unwrap();
        assert_eq!(re.path, ReparsePath::Function(index));
        assert!(
            re.program == parse_program(&src).unwrap(),
            "function {index}"
        );
    }
}
