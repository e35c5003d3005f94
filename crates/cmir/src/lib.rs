//! `ivy-cmir` — the KC (kernel C) language front end.
//!
//! This crate plays the role CIL played for the paper's tools: it defines a
//! C-subset intermediate representation with Deputy annotations as first-class
//! type attributes, plus everything needed to produce and consume it:
//!
//! * [`ast`] / [`types`] — the program representation and the annotation
//!   language (`count`, `bound`, `nullterm`, `nonnull`, `opt`, `trusted`,
//!   `poly`, union `when` tags, function attributes such as `blocking`).
//! * [`lexer`] / [`parser`] — a deterministic textual surface syntax, so the
//!   synthetic kernel corpus is inspectable and round-trippable.
//! * [`pretty`] — pretty printer producing that same syntax.
//! * [`typecheck`] — ordinary C-level validation and expression typing
//!   (Deputy's memory-safety checking lives in `ivy-deputy`).
//! * [`layout`] — i386 data layout (sizes, alignment, field offsets).
//! * [`visit`] — traversal/rewriting helpers and the erasure transformation.
//! * [`content`] — content and layout hashes, the identity of a program
//!   state; [`facts`] — one walk over a function recording what the
//!   whole-program analyses read from its body.
//!
//! # Examples
//!
//! ```
//! use ivy_cmir::parser::parse_program;
//! use ivy_cmir::typecheck::validate_program;
//!
//! let program = parse_program(
//!     r#"
//!     struct sk_buff {
//!         len: u32;
//!         data: u8 * count(len);
//!     }
//!     fn skb_first_byte(skb: struct sk_buff * nonnull) -> u8 {
//!         return skb->data[0];
//!     }
//!     "#,
//! )
//! .unwrap();
//! assert!(validate_program(&program).is_ok());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod content;
pub mod error;
pub mod facts;
pub mod functions;
pub mod globals;
pub mod layout;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod typecheck;
pub mod types;
pub mod visit;

pub use ast::{
    BinOp, Block, Check, Expr, FuncAttrs, Function, Functions, GlobalDef, Program, Stmt, UnOp,
    VarDecl,
};
pub use error::{CmirError, Result};
pub use span::{Pos, Span};
pub use types::{BoundExpr, Bounds, CompositeDef, Field, FuncType, IntKind, PtrAnnot, Type};
