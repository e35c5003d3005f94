//! The collaborative annotation repository proposed in §3.2.
//!
//! The paper proposes "a collaborative database of source code information"
//! — pointer bounds, aliasing, blocking behaviour, error codes — that tools
//! and researchers can share. This module makes that concrete: facts are
//! harvested from a program (and from tool results), merged, and serialised
//! to JSON so they can be stored next to the source.

use ivy_blockstop::BlockStopReport;
use ivy_cmir::ast::Program;
use ivy_cmir::pretty::type_str;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Facts recorded about one function.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionFacts {
    /// Subsystem the function belongs to.
    pub subsystem: String,
    /// Parameter types (KC syntax, annotations included).
    pub param_types: Vec<String>,
    /// Return type.
    pub return_type: String,
    /// True if the function may block (from annotations or BlockStop).
    pub may_block: bool,
    /// True if the function is trusted.
    pub trusted: bool,
    /// Error codes the function may return.
    pub error_codes: Vec<i64>,
    /// Locks the function acquires.
    pub acquires: Vec<String>,
}

/// Facts recorded about one composite type.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TypeFacts {
    /// Field names and their (annotated) types.
    pub fields: BTreeMap<String, String>,
    /// True if any field carries a Deputy annotation.
    pub annotated: bool,
}

/// The shared annotation repository.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Repository {
    /// Facts per function.
    pub functions: BTreeMap<String, FunctionFacts>,
    /// Facts per composite type.
    pub types: BTreeMap<String, TypeFacts>,
    /// Free-form provenance notes (tool name → description of what it
    /// contributed).
    pub provenance: BTreeMap<String, String>,
}

impl Repository {
    /// Harvests declaration-level facts from a program.
    pub fn from_program(program: &Program) -> Repository {
        let mut repo = Repository::default();
        for f in &program.functions {
            repo.functions.insert(
                f.name.clone(),
                FunctionFacts {
                    subsystem: f.subsystem.clone(),
                    param_types: f.params.iter().map(|p| type_str(&p.ty)).collect(),
                    return_type: type_str(&f.ret),
                    may_block: f.attrs.blocking || f.attrs.blocking_if_flag.is_some(),
                    trusted: f.attrs.trusted,
                    error_codes: f.attrs.error_codes.clone(),
                    acquires: f.attrs.acquires.clone(),
                },
            );
        }
        for c in program.composites.iter() {
            let mut fields = BTreeMap::new();
            for field in &c.fields {
                fields.insert(field.name.clone(), type_str(&field.ty));
            }
            repo.types.insert(
                c.name.clone(),
                TypeFacts {
                    annotated: c.fields.iter().any(|f| f.is_annotated()),
                    fields,
                },
            );
        }
        repo.provenance.insert(
            "ivy-cmir".to_string(),
            "declaration-level facts harvested from source".to_string(),
        );
        repo
    }

    /// Merges the results of a BlockStop run: every function in its
    /// `may_block` set is recorded as blocking.
    pub fn absorb_blockstop(&mut self, report: &BlockStopReport) {
        for name in &report.may_block {
            self.functions.entry(name.clone()).or_default().may_block = true;
        }
        self.provenance.insert(
            "ivy-blockstop".to_string(),
            format!("{} functions marked may-block", report.may_block.len()),
        );
    }

    /// Serialises the repository to pretty JSON. Written by hand against
    /// the `Value` model so field order is explicit and byte-stable (the
    /// repository is meant to live next to source in version control, where
    /// stable serialization keeps diffs minimal).
    pub fn to_json(&self) -> String {
        let functions: Map = self
            .functions
            .iter()
            .map(|(name, f)| {
                let mut m = Map::new();
                m.insert("subsystem".into(), Value::from(f.subsystem.as_str()));
                m.insert(
                    "param_types".into(),
                    Value::Array(
                        f.param_types
                            .iter()
                            .map(|t| Value::from(t.as_str()))
                            .collect(),
                    ),
                );
                m.insert("return_type".into(), Value::from(f.return_type.as_str()));
                m.insert("may_block".into(), Value::from(f.may_block));
                m.insert("trusted".into(), Value::from(f.trusted));
                m.insert(
                    "error_codes".into(),
                    Value::Array(f.error_codes.iter().map(|c| Value::from(*c)).collect()),
                );
                m.insert(
                    "acquires".into(),
                    Value::Array(f.acquires.iter().map(|l| Value::from(l.as_str())).collect()),
                );
                (name.clone(), Value::Object(m))
            })
            .collect();
        let types: Map = self
            .types
            .iter()
            .map(|(name, t)| {
                let mut m = Map::new();
                m.insert(
                    "fields".into(),
                    Value::Object(
                        t.fields
                            .iter()
                            .map(|(f, ty)| (f.clone(), Value::from(ty.as_str())))
                            .collect(),
                    ),
                );
                m.insert("annotated".into(), Value::from(t.annotated));
                (name.clone(), Value::Object(m))
            })
            .collect();
        let provenance: Map = self
            .provenance
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
            .collect();

        let mut root = Map::new();
        root.insert("functions".into(), Value::Object(functions));
        root.insert("types".into(), Value::Object(types));
        root.insert("provenance".into(), Value::Object(provenance));
        serde_json::to_string_pretty(&Value::Object(root)).expect("repository serialises")
    }

    /// Loads a repository from JSON.
    pub fn from_json(json: &str) -> Result<Repository, serde_json::Error> {
        let root = serde_json::from_str(json)?;
        let str_list = |v: &Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut repo = Repository::default();
        if let Some(functions) = root.get("functions").and_then(Value::as_object) {
            for (name, v) in functions {
                repo.functions.insert(
                    name.clone(),
                    FunctionFacts {
                        subsystem: v
                            .get("subsystem")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        param_types: str_list(v, "param_types"),
                        return_type: v
                            .get("return_type")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        may_block: v.get("may_block").and_then(Value::as_bool).unwrap_or(false),
                        trusted: v.get("trusted").and_then(Value::as_bool).unwrap_or(false),
                        error_codes: v
                            .get("error_codes")
                            .and_then(Value::as_array)
                            .map(|a| a.iter().filter_map(Value::as_i64).collect())
                            .unwrap_or_default(),
                        acquires: str_list(v, "acquires"),
                    },
                );
            }
        }
        if let Some(types) = root.get("types").and_then(Value::as_object) {
            for (name, v) in types {
                let fields = v
                    .get("fields")
                    .and_then(Value::as_object)
                    .map(|m| {
                        m.iter()
                            .filter_map(|(f, ty)| ty.as_str().map(|t| (f.clone(), t.to_string())))
                            .collect()
                    })
                    .unwrap_or_default();
                repo.types.insert(
                    name.clone(),
                    TypeFacts {
                        fields,
                        annotated: v.get("annotated").and_then(Value::as_bool).unwrap_or(false),
                    },
                );
            }
        }
        if let Some(provenance) = root.get("provenance").and_then(Value::as_object) {
            for (k, v) in provenance {
                if let Some(s) = v.as_str() {
                    repo.provenance.insert(k.clone(), s.to_string());
                }
            }
        }
        Ok(repo)
    }

    /// Merges another repository into this one (other wins on conflicts,
    /// except `may_block`, which is joined).
    pub fn merge(&mut self, other: &Repository) {
        for (name, facts) in &other.functions {
            let entry = self.functions.entry(name.clone()).or_default();
            let was_blocking = entry.may_block;
            *entry = facts.clone();
            entry.may_block |= was_blocking;
        }
        for (name, facts) in &other.types {
            self.types.insert(name.clone(), facts.clone());
        }
        for (k, v) in &other.provenance {
            self.provenance.insert(k.clone(), v.clone());
        }
    }

    /// Functions currently known to block.
    pub fn blocking_functions(&self) -> Vec<String> {
        self.functions
            .iter()
            .filter(|(_, f)| f.may_block)
            .map(|(n, _)| n.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_blockstop::BlockStop;
    use ivy_cmir::parser::parse_program;

    const SRC: &str = r#"
        struct sk_buff { len: u32; data: u8 * count(len); }
        #[blocking]
        fn msleep_kc(ms: u32) { }
        #[subsystem("net/ipv4")] #[error_codes(-12)]
        fn xmit(skb: struct sk_buff * nonnull) -> i32 { msleep_kc(1); return 0; }
    "#;

    #[test]
    fn harvest_round_trips_through_json() {
        let p = parse_program(SRC).unwrap();
        let repo = Repository::from_program(&p);
        assert!(repo.types["sk_buff"].annotated);
        assert_eq!(repo.functions["xmit"].error_codes, vec![-12]);
        assert!(repo.functions["msleep_kc"].may_block);
        let json = repo.to_json();
        let back = Repository::from_json(&json).unwrap();
        assert_eq!(repo, back);
    }

    #[test]
    fn blockstop_results_are_absorbed() {
        let p = parse_program(SRC).unwrap();
        let mut repo = Repository::from_program(&p);
        assert!(!repo.functions["xmit"].may_block);
        let report = BlockStop::new().analyze(&p);
        repo.absorb_blockstop(&report);
        assert!(repo.functions["xmit"].may_block);
        assert!(repo.blocking_functions().contains(&"xmit".to_string()));
    }

    #[test]
    fn merge_joins_blocking_knowledge() {
        let p = parse_program(SRC).unwrap();
        let mut a = Repository::from_program(&p);
        a.functions.get_mut("xmit").unwrap().may_block = true;
        let b = Repository::from_program(&p);
        a.merge(&b);
        assert!(
            a.functions["xmit"].may_block,
            "merge must not lose may-block facts"
        );
    }
}
