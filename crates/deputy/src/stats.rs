//! Annotation-burden statistics (experiment E2).
//!
//! The paper reports, for the converted kernel: total lines converted
//! (~435,000), lines with annotations (~2627, ≈0.6 %), and trusted lines
//! (~3273, ≈0.8 %). This module computes the same three numbers for a KC
//! program, counting lines of the canonical pretty-printed form so that
//! builder-generated and parsed code are measured identically.

use crate::report::BurdenStats;
use ivy_cmir::ast::{Program, Stmt};
use ivy_cmir::pretty;
use ivy_cmir::visit;

/// Computes the annotation-burden statistics of a program.
pub fn burden(program: &Program) -> BurdenStats {
    let mut stats = BurdenStats::default();

    // Composite definitions: one line per field plus two for braces.
    for comp in program.composites.iter() {
        let lines = comp.fields.len() as u64 + 2;
        stats.total_lines += lines;
        let annotated = comp.fields.iter().filter(|f| f.is_annotated()).count() as u64;
        stats.annotated_lines += annotated;
        let entry = stats
            .per_subsystem
            .entry("types".to_string())
            .or_insert((0, 0));
        entry.0 += lines;
        entry.1 += annotated;
    }

    // Globals and typedefs: one line each.
    for g in program.globals.iter() {
        stats.total_lines += 1;
        if g.decl.ty.is_annotated() {
            stats.annotated_lines += 1;
        }
    }
    stats.total_lines += program.typedefs.len() as u64;

    // Functions.
    for f in &program.functions {
        stats.functions += 1;
        let body_lines = pretty::pretty_function(f).lines().count() as u64;
        stats.total_lines += body_lines;

        let mut annotated = 0u64;
        // Signature line counts once if any parameter, the return type, or a
        // function attribute carries an annotation.
        if f.is_annotated() {
            annotated += 1;
        }
        // Each annotated local declaration counts as one annotated line.
        visit::walk_fn_stmts(f, &mut |s| {
            if let Stmt::Local(d, _) = s {
                if d.ty.is_annotated() {
                    annotated += 1;
                }
            }
        });
        stats.annotated_lines += annotated;

        if f.attrs.trusted {
            stats.trusted_functions += 1;
            stats.trusted_lines += body_lines;
        } else {
            // Trusted pointers inside an otherwise-checked function count
            // their declaration lines as trusted.
            let mut trusted_decls = 0u64;
            for p in &f.params {
                if p.ty.ptr_annot().map(|a| a.trusted).unwrap_or(false) {
                    trusted_decls += 1;
                }
            }
            visit::walk_fn_stmts(f, &mut |s| {
                if let Stmt::Local(d, _) = s {
                    if d.ty.ptr_annot().map(|a| a.trusted).unwrap_or(false) {
                        trusted_decls += 1;
                    }
                }
            });
            stats.trusted_lines += trusted_decls;
        }

        let entry = stats
            .per_subsystem
            .entry(f.subsystem.clone())
            .or_insert((0, 0));
        entry.0 += body_lines;
        entry.1 += annotated;
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    const SAMPLE: &str = r#"
        struct sk_buff {
            len: u32;
            data: u8 * count(len);
        }
        global jiffies: u64 = 0;
        #[subsystem("net/ipv4")]
        fn ip_rcv(skb: struct sk_buff * nonnull) -> i32 {
            let p: u8 * = skb->data;
            return 0;
        }
        #[subsystem("mm")] #[trusted]
        fn phys_to_virt(addr: u32) -> void * {
            return addr as void *;
        }
        fn untouched(x: u32) -> u32 {
            return x + 1;
        }
    "#;

    #[test]
    fn counts_annotated_and_trusted_lines() {
        let p = parse_program(SAMPLE).unwrap();
        let b = burden(&p);
        assert_eq!(b.functions, 3);
        assert_eq!(b.trusted_functions, 1);
        // One annotated field + the annotated ip_rcv signature.
        assert!(b.annotated_lines >= 2);
        assert!(
            b.trusted_lines >= 3,
            "trusted function body lines: {}",
            b.trusted_lines
        );
        assert!(b.total_lines > b.annotated_lines + b.trusted_lines);
        assert!(b.per_subsystem.contains_key("net/ipv4"));
        assert!(b.per_subsystem.contains_key("mm"));
    }

    #[test]
    fn unannotated_program_has_zero_burden() {
        let p = parse_program("fn f(x: u32) -> u32 { return x; }").unwrap();
        let b = burden(&p);
        assert_eq!(b.annotated_lines, 0);
        assert_eq!(b.trusted_lines, 0);
        assert!(b.total_lines > 0);
    }

    #[test]
    fn fractions_are_small_for_lightly_annotated_code() {
        let p = parse_program(SAMPLE).unwrap();
        let b = burden(&p);
        assert!(b.annotated_fraction() < 0.5);
        assert!(b.trusted_fraction() < 0.5);
    }
}
