//! # yat-xml — XML substrate for the YAT integration system
//!
//! A self-contained implementation of the XML 1.0 subset used by the YAT
//! system of *"On Wrapping Query Languages and Efficient XML Integration"*
//! (SIGMOD 2000). Wrappers and mediators in the paper exchange **data,
//! structures and operations** as XML documents (Section 2), so this crate is
//! the wire format of the whole reproduction:
//!
//! * [`Element`] / [`Content`] — an ordered-tree document model with
//!   attributes, text, comments, CDATA and processing instructions;
//! * [`parse`] / [`parse_element`] — a recursive-descent parser with
//!   line/column error reporting;
//! * [`Element::to_xml`] and [`Element::to_pretty_xml`] — serializers that
//!   round-trip with the parser;
//! * entity escaping/unescaping (the five predefined entities plus numeric
//!   character references).
//!
//! The subset deliberately excludes DTDs and namespaces: the paper predates
//! XML namespaces in practice and argues DTDs are insufficient for type
//! information (Section 1), replacing them with the YAT type system
//! implemented in `yat-model`.
//!
//! ```
//! use yat_xml::parse_element;
//!
//! let doc = parse_element(r#"<work><artist>Claude Monet</artist></work>"#).unwrap();
//! assert_eq!(doc.name, "work");
//! assert_eq!(doc.child("artist").unwrap().text(), "Claude Monet");
//! let again = parse_element(&doc.to_xml()).unwrap();
//! assert_eq!(doc, again);
//! ```

mod escape;
mod node;
mod parser;
mod writer;

pub use escape::{escape_attr, escape_text, unescape};
pub use node::{Attribute, Content, Element};
pub use parser::{parse, parse_element, ParseError, Position, MAX_DEPTH};
pub use writer::{write_pretty, write_xml};

#[cfg(test)]
mod tests;
