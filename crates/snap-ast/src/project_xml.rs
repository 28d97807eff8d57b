//! Projects as XML documents.
//!
//! Snap! project files are XML; this module gives psnap projects the
//! same on-disk shape. The mapping is mechanical — the serde data model
//! rendered as elements (see [`crate::xml`]) — which keeps it exactly as
//! expressive as the JSON format and guarantees lossless round-trips
//! (values are carried in fully-escaped attributes, so whitespace
//! survives). Both formats decode through the same derived
//! `Deserialize` impls.

use crate::sprite::Project;
use crate::xml::{self, XmlError};

/// A failure loading a project from XML.
#[derive(Debug)]
pub enum ProjectXmlError {
    /// The document isn't well-formed XML.
    Xml(XmlError),
    /// The document is XML but not a psnap project.
    Shape(String),
}

impl std::fmt::Display for ProjectXmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectXmlError::Xml(e) => write!(f, "malformed XML: {e}"),
            ProjectXmlError::Shape(msg) => write!(f, "not a psnap project: {msg}"),
        }
    }
}

impl std::error::Error for ProjectXmlError {}

impl From<XmlError> for ProjectXmlError {
    fn from(e: XmlError) -> Self {
        ProjectXmlError::Xml(e)
    }
}

impl Project {
    /// Serialize to the XML project format.
    pub fn to_xml(&self) -> String {
        let json = serde_json::to_value(self).expect("projects always serialize");
        let mut doc = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        xml::write(&mut doc, "project", None, &json, 0);
        doc
    }

    /// Load from the XML project format.
    pub fn from_xml(text: &str) -> Result<Project, ProjectXmlError> {
        let json = xml::read(text)?;
        serde_json::from_value(json).map_err(|e| ProjectXmlError::Shape(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::script::Script;
    use crate::sprite::SpriteDef;
    use crate::Constant;

    fn sample_project() -> Project {
        Project::new("xml demo")
            .with_global("total <weird & name>", Constant::Number(1.5))
            .with_global("padded", Constant::Text("  spaces kept  ".into()))
            .with_sprite(
                SpriteDef::new("Cat").with_script(Script::on_green_flag(vec![say(
                    parallel_map_over(
                        ring_reporter(mul(empty_slot(), num(10.0))),
                        number_list([3.0, 7.0, 8.0]),
                    ),
                )])),
            )
    }

    #[test]
    fn projects_roundtrip_through_xml() {
        let project = sample_project();
        let xml = project.to_xml();
        assert!(xml.starts_with("<?xml"));
        let back = Project::from_xml(&xml).unwrap();
        assert_eq!(back, project);
    }

    #[test]
    fn whitespace_in_text_values_survives() {
        let project = sample_project();
        let back = Project::from_xml(&project.to_xml()).unwrap();
        assert_eq!(back.globals[1].1, Constant::Text("  spaces kept  ".into()));
    }

    #[test]
    fn non_project_documents_are_rejected() {
        assert!(Project::from_xml("<sprite type=\"object\"/>").is_err());
        assert!(Project::from_xml("<project type=\"bogus\"/>").is_err());
        assert!(Project::from_xml("not xml at all").is_err());
    }

    #[test]
    fn xml_and_json_formats_agree() {
        let project = sample_project();
        let via_xml = Project::from_xml(&project.to_xml()).unwrap();
        let via_json = Project::from_json(&project.to_json()).unwrap();
        assert_eq!(via_xml, via_json);
    }
}
