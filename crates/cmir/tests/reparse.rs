//! The `reparse` contract: for any edit of a parsed source, the
//! function-level re-parse equals a full `parse_program` of the edited
//! text, spans included, and a failure carries the same message.

use ivy_cmir::parser::{parse_program, reparse, ReparsePath};
use proptest::prelude::*;

/// Sources with the shapes the function-level path must get right:
/// several items on one line, comments between and inside items,
/// non-ASCII text in comments, attributes, externs, and a last item
/// with and without a trailing newline.
const BASES: &[&str] = &[
    "struct s { a: u32; b: u8 * count(a); }\n\
     global g: u32 = 7;\n\
     typedef word = u32;\n\
     // caf\u{e9} \u{2014} a comment with non-ASCII text\n\
     fn f(x: u32) -> u32 {\n    let y: u32 = x + 1;\n    return y;\n}\n\
     #[blocking]\nfn h() { f(2); }\n\
     extern fn e(p: u8 *);\n\
     fn last() { h(); /* tail \u{e9} */ }\n",
    "fn a() { b(); } fn b() { c(3); } fn c(n: u32) { while (n > 0) { n = n - 1; } }",
    "fn a() {\n  b(10);\n}\n/* between */ fn b(k: u32) {\n  return;\n}\nglobal z: u32;\nfn c() { a(); }",
];

/// Text an edit may insert: digits, identifiers, newlines, statement and
/// item fragments, comment openers and non-ASCII characters.
const INSERTS: &[&str] = &[
    "",
    "1",
    "42",
    "x",
    "_q",
    " ",
    "\n",
    ";",
    "}",
    "{",
    "(",
    "/*",
    "*/",
    "//",
    "\u{e9}",
    "y = 3;",
    "fn g() { }",
    "global w: u32;",
    "#[blocking]",
    "\"s\"",
];

fn splice(base: &str, at: usize, remove: usize, insert: &str) -> String {
    let mut at = at.min(base.len());
    while !base.is_char_boundary(at) {
        at -= 1;
    }
    let mut end = (at + remove).min(base.len());
    while !base.is_char_boundary(end) {
        end += 1;
    }
    format!("{}{insert}{}", &base[..at], &base[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn reparse_equals_a_full_parse_for_any_splice(
        which in 0usize..3,
        at in 0usize..400,
        remove in 0usize..12,
        insert in 0usize..20,
    ) {
        let base_src = BASES[which];
        let base = parse_program(base_src).expect("base parses");
        let src = splice(base_src, at, remove, INSERTS[insert]);
        let full = parse_program(&src);
        let re = reparse(base_src, &base, &src);
        match (&full, &re) {
            (Ok(full), Ok(re)) => prop_assert_eq!(full, &re.program),
            (Err(full), Err(re)) => prop_assert_eq!(full.to_string(), re.to_string()),
            _ => prop_assert!(false, "{src:?}: full {full:?} vs reparse {re:?}"),
        }
    }
}

#[test]
fn a_line_preserving_body_edit_reparses_one_function() {
    let base_src = BASES[0];
    let base = parse_program(base_src).unwrap();
    let src = base_src.replace("x + 1", "x + 12345");
    let re = reparse(base_src, &base, &src).unwrap();
    assert_eq!(re.path, ReparsePath::Function(0));
    assert_eq!(re.program, parse_program(&src).unwrap());

    // The last function, whose span ends at end of input.
    let src = base_src.replace("/* tail \u{e9} */", "/* t */ f(1);");
    let re = reparse(base_src, &base, &src).unwrap();
    assert_eq!(re.path, ReparsePath::Function(3));
    assert_eq!(re.program, parse_program(&src).unwrap());

    // Several items on one line: the edit shifts the next item's
    // columns, so only a full parse is right.
    let base_src = BASES[1];
    let base = parse_program(base_src).unwrap();
    let src = base_src.replace("c(3)", "c(345)");
    let re = reparse(base_src, &base, &src).unwrap();
    assert_eq!(re.path, ReparsePath::Full);
    assert_eq!(re.program, parse_program(&src).unwrap());
}

#[test]
fn identical_line_shifting_and_non_function_edits_take_their_paths() {
    let base_src = BASES[0];
    let base = parse_program(base_src).unwrap();
    assert_eq!(reparse(base_src, &base, base_src).unwrap().program, base);
    for src in [
        base_src.replace("return y;", "y = 2;\n    return y;"),
        base_src.replace("= 7;", "= 8;"),
        base_src.replace("b: u8", "c: u8"),
        base_src
            .replace("fn h()", "fn hh()")
            .replace("h();", "hh();"),
    ] {
        let re = reparse(base_src, &base, &src).unwrap();
        assert_eq!(re.path, ReparsePath::Full, "{src}");
        assert_eq!(re.program, parse_program(&src).unwrap());
    }
    let broken = base_src.replace("return y;", "return y");
    assert_eq!(
        reparse(base_src, &base, &broken).unwrap_err().to_string(),
        parse_program(&broken).unwrap_err().to_string()
    );
}

#[test]
fn an_edit_touching_the_end_of_the_next_items_first_token_parses_in_full() {
    // A function's span ends at the end of the next item's first token,
    // and only the text up to there is re-lexed: text inserted right
    // after that token could change how the rest of its line lexes
    // without the function path seeing it.
    let base_src = BASES[2];
    let base = parse_program(base_src).unwrap();
    let at = base_src.find("global z").unwrap() + "global".len();
    for insert in ["//", "/**/", " ", "\t"] {
        let src = splice(base_src, at, 0, insert);
        match (parse_program(&src), reparse(base_src, &base, &src)) {
            (Ok(full), Ok(re)) => {
                assert_eq!(re.path, ReparsePath::Full, "{src:?}");
                assert_eq!(full, re.program, "{src:?}");
            }
            (Err(full), Err(re)) => assert_eq!(full.to_string(), re.to_string()),
            (full, re) => panic!("{src:?}: full {full:?} vs reparse {re:?}"),
        }
    }
    // `global// z: u32;` comments out the rest of the line.
    assert!(reparse(base_src, &base, &splice(base_src, at, 0, "//")).is_err());

    // The same after an attribute's `#`: `# [blocking]` moves the `[`.
    let base_src = BASES[0];
    let base = parse_program(base_src).unwrap();
    let at = base_src.find("#[blocking]").unwrap() + 1;
    let src = splice(base_src, at, 0, " ");
    let re = reparse(base_src, &base, &src).unwrap();
    assert_eq!(re.program, parse_program(&src).unwrap());

    // After a function's own `fn` the edit lies inside that function,
    // which is re-parsed whole.
    let base_src = BASES[2];
    let base = parse_program(base_src).unwrap();
    let at = base_src.find("fn b").unwrap() + "fn".len();
    for insert in ["//", "/**/"] {
        let src = splice(base_src, at, 0, insert);
        match (parse_program(&src), reparse(base_src, &base, &src)) {
            (Ok(full), Ok(re)) => assert_eq!(full, re.program, "{src:?}"),
            (Err(full), Err(re)) => assert_eq!(full.to_string(), re.to_string()),
            (full, re) => panic!("{src:?}: full {full:?} vs reparse {re:?}"),
        }
    }
}

#[test]
fn every_one_character_edit_of_every_base_matches_a_full_parse() {
    let mut function_path = 0;
    for base_src in BASES {
        let base = parse_program(base_src).unwrap();
        for at in (0..=base_src.len()).filter(|&i| base_src.is_char_boundary(i)) {
            for (remove, insert) in [
                (0, "7"),
                (1, ""),
                (1, "z"),
                (0, " "),
                (0, "//"),
                (0, "/**/"),
            ] {
                let src = splice(base_src, at, remove, insert);
                let re = reparse(base_src, &base, &src);
                match (parse_program(&src), re) {
                    (Ok(full), Ok(re)) => {
                        assert_eq!(full, re.program, "{src:?}");
                        function_path += usize::from(matches!(re.path, ReparsePath::Function(_)));
                    }
                    (Err(full), Err(re)) => assert_eq!(full.to_string(), re.to_string()),
                    (full, re) => panic!("{src:?}: full {full:?} vs reparse {re:?}"),
                }
            }
        }
    }
    assert!(
        function_path > 200,
        "function path taken {function_path} times"
    );
}
