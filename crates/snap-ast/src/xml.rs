//! The XML project format: the serde data model written as elements.
//!
//! A project is saved as its JSON value tree (`serde_json::to_value`),
//! one element per value. The root element is `<project>`, an array's
//! members are `<item>` children and an object's members are `<field>`
//! children carrying the key in a `name` attribute. Every element names
//! its JSON kind in a `type` attribute, and a scalar carries its text in
//! a fully escaped `value` attribute, so whitespace survives. This is not
//! Snap!'s own `<sprite>`/`<script>`/`<block>` vocabulary.
//!
//! A block is a tagged enum value, an object with one field per block.
//! A [`crate::Constant`] is a plain JSON value, so an item of a list
//! constant, which is where a project's input data lives, is a single
//! element: `<item type="string" value="into"/>` or
//! `<item type="number" value="41.5"/>`. Numbers are written as
//! `serde::json::Number` prints them, `NaN`, `Infinity` and `-Infinity`
//! included, and read with Rust's float parser.
//!
//! `read` scans the text once, straight into the value tree that
//! `Project::from_json` also decodes, and `write` streams a tree back
//! to text. Decoding takes the tree by value, so its strings move into
//! the project and it is freed as it is consumed. `tests/codec.rs`
//! property-tests the round trip.

use std::borrow::Cow;
use std::fmt;

use serde::json::{preview, Map, MAX_DEPTH};
use serde_json::Value as Json;

use crate::project_xml::ProjectXmlError;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A token that doesn't belong (with position), including anything
    /// but whitespace after the root element.
    Unexpected(usize),
    /// Close tag didn't match the open tag.
    MismatchedTag {
        /// The tag that was open.
        open: String,
        /// The tag that tried to close it.
        close: String,
    },
    /// Malformed `&…;` entity.
    BadEntity,
    /// Elements nest deeper than `serde::json::MAX_DEPTH`.
    TooDeep,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof => write!(f, "unexpected end of XML"),
            XmlError::Unexpected(pos) => write!(f, "unexpected character at byte {pos}"),
            XmlError::MismatchedTag { open, close } => {
                write!(f, "<{open}> closed by </{close}>")
            }
            XmlError::BadEntity => write!(f, "malformed XML entity"),
            XmlError::TooDeep => write!(f, "elements nested deeper than {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Append `value` as the element `tag`, indented two spaces per `depth`,
/// with its key as the `name` attribute when it is an object's field.
pub(crate) fn write(out: &mut String, tag: &str, name: Option<&str>, value: &Json, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push('<');
    out.push_str(tag);
    attr(out, "type", value.kind());
    match value {
        Json::Bool(b) => attr(out, "value", if *b { "true" } else { "false" }),
        Json::Number(n) => attr(out, "value", &n.to_string()),
        Json::String(s) => attr(out, "value", s),
        _ => {}
    }
    if let Some(name) = name {
        attr(out, "name", name);
    }
    match value {
        Json::Array(items) if !items.is_empty() => {
            out.push_str(">\n");
            for item in items {
                write(out, "item", None, item, depth + 1);
            }
        }
        Json::Object(map) if !map.is_empty() => {
            out.push_str(">\n");
            for (key, item) in map {
                write(out, "field", Some(key), item, depth + 1);
            }
        }
        _ => {
            out.push_str("/>\n");
            return;
        }
    }
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(tag);
    out.push_str(">\n");
}

fn attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    let mut done = 0;
    for (i, b) in value.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\n' => "&#10;",
            _ => continue,
        };
        out.push_str(&value[done..i]);
        out.push_str(entity);
        done = i + 1;
    }
    out.push_str(&value[done..]);
    out.push('"');
}

/// `s` with its entities replaced, borrowed when it has none.
fn unescape(s: &str) -> Result<Cow<'_, str>, XmlError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp + 1..];
        let end = rest.find(';').ok_or(XmlError::BadEntity)?;
        out.push(match &rest[..end] {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            entity => entity
                .strip_prefix('#')
                .and_then(|n| n.parse::<u32>().ok())
                .and_then(char::from_u32)
                .ok_or(XmlError::BadEntity)?,
        });
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Read a project document: whitespace, an optional `<?xml …?>`
/// prologue, the `<project>` element and nothing after it but whitespace.
pub(crate) fn read(text: &str) -> Result<Json, ProjectXmlError> {
    let mut reader = Reader { text, pos: 0 };
    reader.skip_ws();
    if reader.rest().starts_with(b"<?") {
        let end = reader
            .rest()
            .windows(2)
            .position(|w| w == b"?>")
            .ok_or(XmlError::UnexpectedEof)?;
        reader.pos += end + 2;
        reader.skip_ws();
    }
    let root = reader.tag()?;
    if root.element != "project" {
        let found = preview(root.element);
        return Err(shape(format!("expected <project>, found <{found}>")));
    }
    let value = reader.value(root, 1)?;
    reader.skip_ws();
    if reader.pos != text.len() {
        return Err(XmlError::Unexpected(reader.pos).into());
    }
    Ok(value)
}

fn shape(message: String) -> ProjectXmlError {
    ProjectXmlError::Shape(message)
}

/// A start tag, with the three attributes the format reads. Of a
/// repeated attribute, the first wins.
struct Tag<'a> {
    element: &'a str,
    kind: Option<Cow<'a, str>>,
    value: Option<Cow<'a, str>>,
    name: Option<Cow<'a, str>>,
    /// Closed by `/>`: no content follows.
    empty: bool,
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn skip_ws(&mut self) {
        let ws = self.rest().iter().take_while(|b| b.is_ascii_whitespace());
        self.pos += ws.count();
    }

    fn expect(&mut self, byte: u8) -> Result<(), XmlError> {
        match self.rest().first() {
            Some(&b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(XmlError::Unexpected(self.pos)),
            None => Err(XmlError::UnexpectedEof),
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let len = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':'))
            .count();
        if len == 0 {
            return Err(if self.rest().is_empty() {
                XmlError::UnexpectedEof
            } else {
                XmlError::Unexpected(self.pos)
            });
        }
        self.pos += len;
        Ok(&self.text[self.pos - len..self.pos])
    }

    /// An attribute value up to its closing quote, which is consumed
    /// too, with its entities replaced. A value without entities, the
    /// common case, takes one scan and is borrowed.
    fn attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let (start, rest) = (self.pos, self.rest());
        let stop = rest.iter().position(|&b| b == b'"' || b == b'&');
        let entities = stop.is_some_and(|at| rest[at] == b'&');
        let len = if entities {
            rest.iter().position(|&b| b == b'"')
        } else {
            stop
        };
        let len = len.ok_or(XmlError::UnexpectedEof)?;
        self.pos += len + 1;
        let raw = &self.text[start..start + len];
        if entities {
            unescape(raw)
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    fn tag(&mut self) -> Result<Tag<'a>, XmlError> {
        self.expect(b'<')?;
        let mut tag = Tag {
            element: self.name()?,
            kind: None,
            value: None,
            name: None,
            empty: false,
        };
        loop {
            self.skip_ws();
            match self.rest().first() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    tag.empty = true;
                    return Ok(tag);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(tag);
                }
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    self.expect(b'"')?;
                    let value = self.attr_value()?;
                    let slot = match attr {
                        "type" => &mut tag.kind,
                        "value" => &mut tag.value,
                        "name" => &mut tag.name,
                        _ => continue,
                    };
                    slot.get_or_insert(value);
                }
                None => return Err(XmlError::UnexpectedEof),
            }
        }
    }

    /// The next child of the element `open` started, or `None` once its
    /// close tag has been read.
    fn child(&mut self, open: &Tag<'a>) -> Result<Option<Tag<'a>>, XmlError> {
        if open.empty {
            return Ok(None);
        }
        loop {
            self.skip_ws();
            match self.rest() {
                [b'<', b'/', ..] => {
                    self.pos += 2;
                    let close = self.name()?;
                    self.skip_ws();
                    self.expect(b'>')?;
                    if close != open.element {
                        return Err(XmlError::MismatchedTag {
                            open: open.element.to_owned(),
                            close: close.to_owned(),
                        });
                    }
                    return Ok(None);
                }
                [b'<', ..] => return self.tag().map(Some),
                [_, ..] => {
                    // Text carries nothing in this format, but its
                    // entities must still be well formed.
                    let len = self.rest().iter().position(|&b| b == b'<');
                    let len = len.unwrap_or(self.rest().len());
                    unescape(&self.text[self.pos..self.pos + len])?;
                    self.pos += len;
                }
                [] => return Err(XmlError::UnexpectedEof),
            }
        }
    }

    /// The value of the element `tag` started, `depth` elements deep,
    /// reading up to its end. This is the reader's one recursive step,
    /// so it keeps its stack frame small.
    fn value(&mut self, mut tag: Tag<'a>, depth: usize) -> Result<Json, ProjectXmlError> {
        if depth > MAX_DEPTH {
            return Err(XmlError::TooDeep.into());
        }
        let mut value = from_tag(&mut tag)?;
        let mut fields = match value {
            // Most objects are enum values, tagged by their one key.
            Json::Object(_) => Vec::with_capacity(1),
            _ => Vec::new(),
        };
        while let Some(mut child) = self.child(&tag)? {
            let name = child.name.take();
            let item = self.value(child, depth + 1)?;
            match &mut value {
                Json::Array(items) => items.push(item),
                Json::Object(_) => {
                    let name = name.ok_or_else(|| shape("object field without name".into()))?;
                    fields.push((name.into_owned(), item));
                }
                // A scalar has no children in the format; any present
                // are read and dropped.
                _ => {}
            }
        }
        if !fields.is_empty() {
            value = Json::Object(fields.into_iter().collect());
        }
        Ok(value)
    }
}

/// The value a start tag's `type` and `value` attributes give: a scalar,
/// or an empty array or object for the element's children to fill. Kept
/// out of line so that its error formatting stays out of the recursive
/// [`Reader::value`]'s frame.
#[inline(never)]
fn from_tag(tag: &mut Tag<'_>) -> Result<Json, ProjectXmlError> {
    let Some(kind) = tag.kind.as_deref() else {
        let element = preview(tag.element);
        return Err(shape(format!("<{element}> lacks type attribute")));
    };
    Ok(match kind {
        "null" => Json::Null,
        "bool" => Json::Bool(tag.value.as_deref() == Some("true")),
        "number" => {
            let raw = tag.value.as_deref();
            let raw = raw.ok_or_else(|| shape("number without value".into()))?;
            let n = raw.parse();
            Json::Number(n.map_err(|_| shape(format!("bad number {}", preview(raw))))?)
        }
        "string" => Json::String(tag.value.take().map(Cow::into_owned).unwrap_or_default()),
        "array" => Json::Array(Vec::new()),
        "object" => Json::Object(Map::new()),
        other => return Err(shape(format!("unknown type {}", preview(other)))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_text(value: &Json) -> String {
        let mut out = String::new();
        write(&mut out, "project", None, value, 0);
        out
    }

    fn string(s: &str) -> Json {
        Json::String(s.into())
    }

    #[test]
    fn writes_and_reparses_simple_trees() {
        let mut sprite = Map::new();
        sprite.insert("name".into(), string("Cat"));
        let mut root = Map::new();
        root.insert("name".into(), string("demo"));
        root.insert("sprite".into(), Json::Object(sprite));
        root.insert("note".into(), string("hello <world> & \"friends\""));
        let root = Json::Object(root);
        assert_eq!(read(&to_text(&root)).unwrap(), root);
    }

    #[test]
    fn self_closing_and_nested() {
        let parsed = read(
            "<project type=\"object\" name=\"x\"><field type=\"array\" name=\"a\"/>\
             <field type=\"array\" name=\"c\"><item type=\"number\" value=\"2\"/></field></project>",
        )
        .unwrap();
        let map = parsed.as_object().unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("a"), Some(&Json::Array(vec![])));
        let two = Json::Number(serde_json::Number::from_f64(2.0));
        assert_eq!(map.get("c"), Some(&Json::Array(vec![two])));
    }

    #[test]
    fn xml_declaration_is_skipped() {
        let parsed = read("<?xml version=\"1.0\"?>\n<project type=\"null\"/>").unwrap();
        assert_eq!(parsed, Json::Null);
    }

    #[test]
    fn entities_roundtrip() {
        let value = string("a&b<c>\"d\"\ne");
        assert_eq!(read(&to_text(&value)).unwrap(), value);
        let spelled = "<project type=\"string\" value=\"&apos;&#65;&amp;\"/>";
        assert_eq!(read(spelled).unwrap(), string("'A&"));
        for bad in ["&bogus;", "&#1114112;", "&amp"] {
            let doc = format!("<project type=\"string\" value=\"{bad}\"/>");
            assert!(
                matches!(read(&doc), Err(ProjectXmlError::Xml(XmlError::BadEntity))),
                "{bad}"
            );
        }
    }

    #[test]
    fn mismatched_tags_error() {
        match read("<project type=\"array\"></b>") {
            Err(ProjectXmlError::Xml(e)) => assert_eq!(
                e,
                XmlError::MismatchedTag {
                    open: "project".into(),
                    close: "b".into()
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_input_errors() {
        for doc in [
            "",
            "<",
            "<project ",
            "<project type=\"arr",
            "<project type=\"array\"><item type=\"null\"></item>",
            "<project type=\"array\"></",
        ] {
            assert!(
                matches!(
                    read(doc),
                    Err(ProjectXmlError::Xml(XmlError::UnexpectedEof))
                ),
                "{doc:?}"
            );
        }
    }

    #[test]
    fn repeated_keys_keep_the_first_position_and_the_last_value() {
        let doc = "<project type=\"object\"><field type=\"number\" value=\"1\" name=\"a\"/>\
                   <field type=\"null\" name=\"b\"/><field type=\"number\" value=\"3\" name=\"a\"/>\
                   </project>";
        let three = Json::Number(serde_json::Number::from_f64(3.0));
        let mut expected = Map::new();
        expected.insert("a".into(), three);
        expected.insert("b".into(), Json::Null);
        assert_eq!(read(doc).unwrap(), Json::Object(expected));
    }
}
