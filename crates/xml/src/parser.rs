//! A parser for the XML subset exchanged between YAT wrappers and
//! mediators.

use crate::escape::unescape;
use crate::node::{Attribute, Content, Element};
use std::fmt;

/// A line/column position in the input, for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub column: u32,
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A parse failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the failure was detected.
    pub position: Position,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply elements may nest; deeper input is a [`ParseError`]. The
/// parser itself keeps open elements on the heap, but whatever walks a
/// parsed element (serializing it, converting it to a tree, dropping it)
/// recurses once per level, so without a bound one hostile document of
/// nested tags would overflow a thread's stack and abort the process.
/// YAT messages nest a few dozen levels.
pub const MAX_DEPTH: usize = 1024;

/// Parses a complete document: optional XML declaration, optional
/// comments/PIs, then exactly one root element.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    let root = p.element()?;
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err("content after document root element"));
    }
    Ok(root)
}

/// Parses a single element, ignoring any prolog. Convenience entry point
/// used throughout the workspace for message payloads.
pub fn parse_element(input: &str) -> Result<Element, ParseError> {
    parse(input)
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset of the cursor.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn position(&self) -> Position {
        Position {
            line: self.line,
            column: self.col,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            position: self.position(),
            message: msg.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found `{:.12}`", s, self.rest())))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    /// Consumes everything up to (and including) `end`, returning the
    /// consumed prefix.
    fn until(&mut self, end: &str, what: &str) -> Result<&'a str, ParseError> {
        match self.rest().find(end) {
            Some(i) => {
                let s = &self.rest()[..i];
                for _ in s.chars().chain(end.chars()) {
                    self.bump();
                }
                Ok(s)
            }
            None => Err(self.err(format!("unterminated {what} (missing `{end}`)"))),
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.eat("<?xml");
            self.until("?>", "XML declaration")?;
        }
        self.skip_misc();
        Ok(())
    }

    /// Skips whitespace, comments and PIs (allowed around the root).
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.eat("<!--");
                if self.until("-->", "comment").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                self.eat("<?");
                if self.until("?>", "processing instruction").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn attribute(&mut self) -> Result<Attribute, ParseError> {
        let name = self.name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                q
            }
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let raw = self.until(&quote.to_string(), "attribute value")?;
        let value = unescape(raw).map_err(|m| self.err(m))?.into_owned();
        Ok(Attribute { name, value })
    }

    /// Parses one element and everything inside it. Open elements wait
    /// on an explicit stack rather than the call stack, so the nesting
    /// depth costs heap, not thread stack.
    fn element(&mut self) -> Result<Element, ParseError> {
        let mut open: Vec<Element> = Vec::new();
        let mut el = match self.start_tag()? {
            StartTag::Empty(el) => return Ok(el),
            StartTag::Open(el) => el,
        };
        loop {
            if self.content_into(&mut el)? {
                // `el` sits at depth `open.len() + 1`, its child one deeper
                if open.len() + 1 == MAX_DEPTH {
                    return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
                }
                match self.start_tag()? {
                    StartTag::Empty(child) => el.children.push(Content::Element(child)),
                    StartTag::Open(child) => open.push(std::mem::replace(&mut el, child)),
                }
                continue;
            }
            self.end_tag(&el.name)?;
            match open.pop() {
                Some(mut parent) => {
                    parent.children.push(Content::Element(el));
                    el = parent;
                }
                None => return Ok(el),
            }
        }
    }

    /// Parses a start tag: the name and attributes through `>` or `/>`.
    fn start_tag(&mut self) -> Result<StartTag, ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        let mut el = Element::new(name);
        loop {
            self.skip_ws();
            if self.eat("/>") {
                return Ok(StartTag::Empty(el));
            }
            if self.eat(">") {
                return Ok(StartTag::Open(el));
            }
            el.attributes.push(self.attribute()?);
        }
    }

    /// Parses the end tag closing the element named `name`.
    fn end_tag(&mut self, name: &str) -> Result<(), ParseError> {
        self.expect("</")?;
        let close = self.name()?;
        if close != name {
            return Err(self.err(format!(
                "mismatched closing tag: expected `</{name}>`, found `</{close}>`"
            )));
        }
        self.skip_ws();
        self.expect(">")
    }

    /// Appends `el`'s content up to the next child start tag (returns
    /// `true`, cursor on its `<`) or its end tag (returns `false`, cursor
    /// on `</`).
    fn content_into(&mut self, el: &mut Element) -> Result<bool, ParseError> {
        let mut text = String::new();
        let mut text_has_cr = false;
        loop {
            if self.at_end() {
                return Err(self.err(format!("unexpected end of input inside <{}>", el.name)));
            }
            if self.starts_with("</") {
                flush_text(el, &mut text, text_has_cr);
                return Ok(false);
            } else if self.starts_with("<!--") {
                flush_text(el, &mut text, text_has_cr);
                self.eat("<!--");
                let c = self.until("-->", "comment")?;
                el.children.push(Content::Comment(c.to_string()));
            } else if self.starts_with("<![CDATA[") {
                flush_text(el, &mut text, text_has_cr);
                self.eat("<![CDATA[");
                let c = self.until("]]>", "CDATA section")?;
                el.children.push(Content::CData(c.to_string()));
            } else if self.starts_with("<?") {
                flush_text(el, &mut text, text_has_cr);
                self.eat("<?");
                let body = self.until("?>", "processing instruction")?;
                let (target, data) = match body.find(char::is_whitespace) {
                    Some(i) => (body[..i].to_string(), body[i..].trim_start().to_string()),
                    None => (body.to_string(), String::new()),
                };
                el.children
                    .push(Content::ProcessingInstruction { target, data });
            } else if self.starts_with("<!") {
                return Err(self.err("DTD declarations are not supported"));
            } else if self.starts_with("<") {
                flush_text(el, &mut text, text_has_cr);
                return Ok(true);
            } else {
                // character data up to the next `<`
                let chunk = match self.rest().find('<') {
                    Some(i) => &self.rest()[..i],
                    None => self.rest(),
                };
                let owned;
                let chunk = {
                    owned = chunk.to_string();
                    for _ in owned.chars() {
                        self.bump();
                    }
                    owned
                };
                if chunk.contains('\r') {
                    text_has_cr = true;
                }
                let un = unescape(&chunk).map_err(|m| self.err(m))?;
                text.push_str(&un);
            }
        }
    }
}

enum StartTag {
    /// `<name .../>`: complete already.
    Empty(Element),
    /// `<name ...>`: content and an end tag follow.
    Open(Element),
}

/// XML 1.0 end-of-line handling: `\r\n` and lone `\r` normalize to `\n`.
fn flush_text(el: &mut Element, text: &mut String, has_cr: bool) {
    if text.is_empty() {
        return;
    }
    let t = if has_cr {
        text.replace("\r\n", "\n").replace('\r', "\n")
    } else {
        std::mem::take(text)
    };
    text.clear();
    el.children.push(Content::Text(t));
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.'
}
