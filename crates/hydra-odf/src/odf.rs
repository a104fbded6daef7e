//! The Offcode Description File model.
//!
//! An ODF (paper §3.3) has three parts: the *package* (bind name, GUID,
//! supported interfaces), the *dependencies* on peer Offcodes with their
//! placement constraints, and the *device classes* the Offcode can target.
//! This module models, validates, parses and serializes ODFs; the layout
//! machinery in `hydra-core` consumes them to build the offloading layout
//! graph.

use std::fmt;

use crate::xml::{parse as parse_xml, Element, Node, XmlError};

/// A globally unique identifier for Offcodes and interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guid(pub u64);

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guid:{}", self.0)
    }
}

/// Placement constraints between two Offcodes (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// No placement constraint; merely a functional dependency.
    Link,
    /// Both Offcodes must land on the *same* device.
    Pull,
    /// If one is offloaded, the other must be offloaded too (possibly to a
    /// different device), and vice versa.
    Gang,
    /// Offloading *this* Offcode requires offloading the referenced one,
    /// but not the reverse.
    AsymGang,
}

impl ConstraintKind {
    /// The ODF attribute spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConstraintKind::Link => "Link",
            ConstraintKind::Pull => "Pull",
            ConstraintKind::Gang => "Gang",
            ConstraintKind::AsymGang => "AsymGang",
        }
    }

    /// Parses the ODF attribute spelling.
    pub fn from_str_opt(s: &str) -> Option<ConstraintKind> {
        match s {
            "Link" => Some(ConstraintKind::Link),
            "Pull" => Some(ConstraintKind::Pull),
            "Gang" => Some(ConstraintKind::Gang),
            "AsymGang" => Some(ConstraintKind::AsymGang),
            _ => None,
        }
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A class of target devices the Offcode can run on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceClassSpec {
    /// Numeric class id (e.g. `0x0001` = network device).
    pub id: u32,
    /// Human-readable class name.
    pub name: String,
    /// Required bus attachment, if any.
    pub bus: Option<String>,
    /// Required MAC layer, if any (for network devices).
    pub mac: Option<String>,
    /// Required vendor, if any.
    pub vendor: Option<String>,
}

impl DeviceClassSpec {
    /// The host-CPU pseudo class: every ODF may fall back to the host.
    pub fn host_cpu() -> Self {
        DeviceClassSpec {
            id: 0,
            name: "Host CPU".into(),
            bus: None,
            mac: None,
            vendor: None,
        }
    }

    /// A bare spec for class `id`, named `class-{id}`: no bus, MAC or
    /// vendor requirement, so any device of the class matches.
    pub fn of(id: u32) -> Self {
        DeviceClassSpec {
            id,
            name: format!("class-{id}"),
            bus: None,
            mac: None,
            vendor: None,
        }
    }
}

/// A declared arrival curve for an Offcode's outbound calls: a
/// token-bucket `(rate, burst)` plus the worst-case payload size.
///
/// The static certification pass in `hydra-verify` propagates these
/// curves through the channel/provider cost tables to bound queue
/// depths, end-to-end latencies, and device utilization before anything
/// is deployed. The element is optional; undeclared Offcodes get a
/// conservative default and an informational `HV044` diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficSpec {
    /// Sustained call rate toward each imported peer, in messages/sec.
    pub rate_per_sec: u64,
    /// Maximum back-to-back burst, in messages (at least 1).
    pub burst: u64,
    /// Worst-case payload size per message, in bytes.
    pub max_bytes: u64,
}

/// A dependency on a peer Offcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Path of the peer's ODF/object file.
    pub file: String,
    /// Peer's bind name.
    pub bind_name: String,
    /// Peer's GUID.
    pub guid: Guid,
    /// Placement constraint toward the peer.
    pub constraint: ConstraintKind,
    /// Priority (lower is more important when constraints conflict).
    pub priority: u8,
}

/// A parsed, validated Offcode Description File.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OdfDocument {
    /// Bind name under which the Offcode registers at the target.
    pub bind_name: String,
    /// The Offcode's GUID.
    pub guid: Guid,
    /// WSDL interface files included by the package section.
    pub interfaces: Vec<String>,
    /// Peer dependencies.
    pub imports: Vec<Import>,
    /// Candidate device classes, in preference order.
    pub targets: Vec<DeviceClassSpec>,
    /// Declared worst-case memory footprint in bytes, if the package
    /// states one (`<footprint>` in the package section). Consumed by the
    /// static capacity pre-check; absent means "unknown".
    pub footprint: Option<u64>,
    /// Declared arrival curve for outbound calls (`<traffic rate=..
    /// burst=.. bytes=../>`), if any. Consumed by the static
    /// certification pass; absent means "use conservative defaults".
    pub traffic: Option<TrafficSpec>,
}

/// Errors raised while interpreting an ODF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OdfError {
    /// The XML itself is malformed.
    Xml(XmlError),
    /// A required element is missing.
    Missing(&'static str),
    /// An element or attribute has an invalid value.
    Invalid {
        /// What was being parsed.
        what: &'static str,
        /// The offending value.
        value: String,
    },
}

impl From<XmlError> for OdfError {
    fn from(e: XmlError) -> Self {
        OdfError::Xml(e)
    }
}

impl fmt::Display for OdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdfError::Xml(e) => write!(f, "{e}"),
            OdfError::Missing(what) => write!(f, "odf: missing {what}"),
            OdfError::Invalid { what, value } => {
                write!(f, "odf: invalid {what}: '{value}'")
            }
        }
    }
}

impl std::error::Error for OdfError {}

fn parse_u64(what: &'static str, raw: &str) -> Result<u64, OdfError> {
    let raw = raw.trim().trim_matches('"');
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|_| OdfError::Invalid {
        what,
        value: raw.to_owned(),
    })
}

impl OdfDocument {
    /// Creates a minimal ODF with just a name and GUID (builder entry
    /// point; extend with [`OdfDocument::with_import`] /
    /// [`OdfDocument::with_target`]).
    pub fn new(bind_name: impl Into<String>, guid: Guid) -> Self {
        OdfDocument {
            bind_name: bind_name.into(),
            guid,
            interfaces: Vec::new(),
            imports: Vec::new(),
            targets: Vec::new(),
            footprint: None,
            traffic: None,
        }
    }

    /// Adds an interface include.
    pub fn with_interface(mut self, file: impl Into<String>) -> Self {
        self.interfaces.push(file.into());
        self
    }

    /// Adds a peer dependency.
    pub fn with_import(mut self, import: Import) -> Self {
        self.imports.push(import);
        self
    }

    /// Adds a candidate device class.
    pub fn with_target(mut self, target: DeviceClassSpec) -> Self {
        self.targets.push(target);
        self
    }

    /// Declares the worst-case memory footprint in bytes.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint = Some(bytes);
        self
    }

    /// Declares the arrival curve for outbound calls. A zero burst is
    /// clamped to 1 (a message in flight is a burst of one).
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(TrafficSpec {
            burst: traffic.burst.max(1),
            ..traffic
        });
        self
    }

    /// Parses and validates an ODF from XML text.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML, a missing `package`/`bindname`/`GUID`, or
    /// invalid numeric fields.
    ///
    /// # Examples
    ///
    /// ```
    /// use hydra_odf::odf::OdfDocument;
    ///
    /// let odf = OdfDocument::parse(r#"
    ///   <offcode>
    ///     <package>
    ///       <bindname>demo.Checksum</bindname>
    ///       <GUID>42</GUID>
    ///     </package>
    ///   </offcode>"#).unwrap();
    /// assert_eq!(odf.bind_name, "demo.Checksum");
    /// ```
    pub fn parse(xml: &str) -> Result<OdfDocument, OdfError> {
        let root = parse_xml(xml)?;
        Self::from_element(&root)
    }

    /// Interprets an already-parsed XML element as an ODF.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OdfDocument::parse`].
    pub fn from_element(root: &Element) -> Result<OdfDocument, OdfError> {
        if root.name != "offcode" {
            return Err(OdfError::Invalid {
                what: "root element",
                value: root.name.clone(),
            });
        }
        let package = root.child("package").ok_or(OdfError::Missing("package"))?;
        let bind_name = package
            .child("bindname")
            .ok_or(OdfError::Missing("package/bindname"))?
            .text();
        if bind_name.is_empty() {
            return Err(OdfError::Missing("package/bindname"));
        }
        let guid = Guid(parse_u64(
            "package/GUID",
            &package
                .child("GUID")
                .ok_or(OdfError::Missing("package/GUID"))?
                .text(),
        )?);
        let mut interfaces = Vec::new();
        if let Some(iface) = package.child("interface") {
            for inc in iface.children_named("include") {
                interfaces.push(inc.text().trim_matches('"').to_owned());
            }
        }
        let footprint = match package.child("footprint") {
            None => None,
            Some(fp) => Some(parse_u64("package/footprint", &fp.text())?),
        };

        let mut imports = Vec::new();
        if let Some(sw) = root.child("sw-env") {
            for imp in sw.children_named("import") {
                imports.push(Self::parse_import(imp)?);
            }
        }

        let mut targets = Vec::new();
        if let Some(t) = root.child("targets") {
            for dc in t.children_named("device-class") {
                targets.push(Self::parse_device_class(dc)?);
            }
        }

        let traffic = match root.child("traffic") {
            None => None,
            Some(t) => Some(Self::parse_traffic(t)?),
        };

        Ok(OdfDocument {
            bind_name,
            guid,
            interfaces,
            imports,
            targets,
            footprint,
            traffic,
        })
    }

    fn parse_traffic(t: &Element) -> Result<TrafficSpec, OdfError> {
        let rate_per_sec = parse_u64(
            "traffic/rate",
            t.attr("rate").ok_or(OdfError::Missing("traffic/rate"))?,
        )?;
        let burst = match t.attr("burst") {
            None => 1,
            Some(b) => parse_u64("traffic/burst", b)?.max(1),
        };
        let max_bytes = match t.attr("bytes") {
            None => 1024,
            Some(b) => parse_u64("traffic/bytes", b)?,
        };
        Ok(TrafficSpec {
            rate_per_sec,
            burst,
            max_bytes,
        })
    }

    fn parse_import(imp: &Element) -> Result<Import, OdfError> {
        let file = imp
            .child("file")
            .map(|e| e.text().trim_matches('"').to_owned())
            .unwrap_or_default();
        let bind_name = imp
            .child("bindname")
            .ok_or(OdfError::Missing("import/bindname"))?
            .text();
        let guid = Guid(parse_u64(
            "import/GUID",
            &imp.child("GUID")
                .ok_or(OdfError::Missing("import/GUID"))?
                .text(),
        )?);
        let (constraint, priority) = match imp.child("reference") {
            None => (ConstraintKind::Link, 0),
            Some(r) => {
                let kind = match r.attr("type") {
                    None => ConstraintKind::Link,
                    Some(s) => ConstraintKind::from_str_opt(s).ok_or(OdfError::Invalid {
                        what: "reference/type",
                        value: s.to_owned(),
                    })?,
                };
                let pri = match r.attr("pri") {
                    None => 0,
                    Some(p) => parse_u64("reference/pri", p)? as u8,
                };
                (kind, pri)
            }
        };
        Ok(Import {
            file,
            bind_name,
            guid,
            constraint,
            priority,
        })
    }

    fn parse_device_class(dc: &Element) -> Result<DeviceClassSpec, OdfError> {
        let id = parse_u64(
            "device-class/id",
            dc.attr("id").ok_or(OdfError::Missing("device-class/id"))?,
        )? as u32;
        let name = dc
            .child("name")
            .ok_or(OdfError::Missing("device-class/name"))?
            .text();
        let get = |tag: &str| dc.child(tag).map(|e| e.text());
        Ok(DeviceClassSpec {
            id,
            name,
            bus: get("bus"),
            mac: get("mac"),
            vendor: get("vendor"),
        })
    }

    /// Serializes back to ODF XML. The output re-parses to an equal
    /// document (round-trip property).
    pub fn to_xml(&self) -> String {
        let text_el = |name: &str, text: &str| Element {
            name: name.into(),
            attributes: vec![],
            children: vec![Node::Text(text.into())],
        };
        let mut package_children = vec![
            Node::Element(text_el("bindname", &self.bind_name)),
            Node::Element(text_el("GUID", &self.guid.0.to_string())),
        ];
        if let Some(fp) = self.footprint {
            package_children.push(Node::Element(text_el("footprint", &fp.to_string())));
        }
        if !self.interfaces.is_empty() {
            package_children.push(Node::Element(Element {
                name: "interface".into(),
                attributes: vec![],
                children: self
                    .interfaces
                    .iter()
                    .map(|i| Node::Element(text_el("include", i)))
                    .collect(),
            }));
        }
        let mut children = vec![Node::Element(Element {
            name: "package".into(),
            attributes: vec![],
            children: package_children,
        })];
        if !self.imports.is_empty() {
            children.push(Node::Element(Element {
                name: "sw-env".into(),
                attributes: vec![],
                children: self
                    .imports
                    .iter()
                    .map(|imp| {
                        let mut c = Vec::new();
                        if !imp.file.is_empty() {
                            c.push(Node::Element(text_el("file", &imp.file)));
                        }
                        c.push(Node::Element(text_el("bindname", &imp.bind_name)));
                        c.push(Node::Element(Element {
                            name: "reference".into(),
                            attributes: vec![
                                ("type".into(), imp.constraint.as_str().into()),
                                ("pri".into(), imp.priority.to_string()),
                            ],
                            children: vec![],
                        }));
                        c.push(Node::Element(text_el("GUID", &imp.guid.0.to_string())));
                        Node::Element(Element {
                            name: "import".into(),
                            attributes: vec![],
                            children: c,
                        })
                    })
                    .collect(),
            }));
        }
        if !self.targets.is_empty() {
            children.push(Node::Element(Element {
                name: "targets".into(),
                attributes: vec![],
                children: self
                    .targets
                    .iter()
                    .map(|t| {
                        let mut c = vec![Node::Element(text_el("name", &t.name))];
                        if let Some(b) = &t.bus {
                            c.push(Node::Element(text_el("bus", b)));
                        }
                        if let Some(m) = &t.mac {
                            c.push(Node::Element(text_el("mac", m)));
                        }
                        if let Some(v) = &t.vendor {
                            c.push(Node::Element(text_el("vendor", v)));
                        }
                        Node::Element(Element {
                            name: "device-class".into(),
                            attributes: vec![("id".into(), format!("0x{:04x}", t.id))],
                            children: c,
                        })
                    })
                    .collect(),
            }));
        }
        if let Some(t) = self.traffic {
            children.push(Node::Element(Element {
                name: "traffic".into(),
                attributes: vec![
                    ("rate".into(), t.rate_per_sec.to_string()),
                    ("burst".into(), t.burst.to_string()),
                    ("bytes".into(), t.max_bytes.to_string()),
                ],
                children: vec![],
            }));
        }
        Element {
            name: "offcode".into(),
            attributes: vec![],
            children,
        }
        .to_xml()
    }
}

/// Well-known device class ids used throughout the reproduction.
pub mod class_ids {
    /// The host CPU fallback class.
    pub const HOST_CPU: u32 = 0x0000;
    /// Programmable network interface cards.
    pub const NETWORK: u32 = 0x0001;
    /// Programmable storage controllers ("smart disks").
    pub const STORAGE: u32 = 0x0002;
    /// Graphics processing units.
    pub const GPU: u32 = 0x0003;
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_ODF: &str = r#"<offcode>
  <package>
    <bindname>hydra.net.utils.Socket</bindname>
    <GUID>7070714</GUID>
    <interface><include>"/offcodes/socket.wsdl"</include></interface>
  </package>
  <sw-env>
    <import>
      <file>"/offcodes/checksum.xdf"</file>
      <bindname>hydra.net.utils.Checksum</bindname>
      <reference type=Pull pri=0/>
      <GUID>6060843</GUID>
    </import>
  </sw-env>
  <targets>
    <device-class id=0x0001>
      <name>Network Device</name>
      <bus>pci</bus>
      <mac>ethernet</mac>
      <vendor>3COM</vendor>
    </device-class>
  </targets>
</offcode>"#;

    #[test]
    fn parses_paper_figure_4() {
        let odf = OdfDocument::parse(PAPER_ODF).unwrap();
        assert_eq!(odf.bind_name, "hydra.net.utils.Socket");
        assert_eq!(odf.guid, Guid(7070714));
        assert_eq!(odf.interfaces, vec!["/offcodes/socket.wsdl"]);
        assert_eq!(odf.imports.len(), 1);
        let imp = &odf.imports[0];
        assert_eq!(imp.bind_name, "hydra.net.utils.Checksum");
        assert_eq!(imp.guid, Guid(6060843));
        assert_eq!(imp.constraint, ConstraintKind::Pull);
        assert_eq!(imp.priority, 0);
        assert_eq!(odf.targets.len(), 1);
        let t = &odf.targets[0];
        assert_eq!(t.id, 1);
        assert_eq!(t.name, "Network Device");
        assert_eq!(t.bus.as_deref(), Some("pci"));
        assert_eq!(t.vendor.as_deref(), Some("3COM"));
    }

    #[test]
    fn round_trips_through_xml() {
        let odf = OdfDocument::parse(PAPER_ODF).unwrap();
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(odf, re);
    }

    #[test]
    fn builder_round_trips() {
        let odf = OdfDocument::new("tivo.Decoder", Guid(99))
            .with_interface("/offcodes/decoder.wsdl")
            .with_import(Import {
                file: "/offcodes/display.odf".into(),
                bind_name: "tivo.Display".into(),
                guid: Guid(100),
                constraint: ConstraintKind::Pull,
                priority: 1,
            })
            .with_target(DeviceClassSpec {
                id: class_ids::GPU,
                name: "GPU".into(),
                bus: Some("agp".into()),
                mac: None,
                vendor: None,
            })
            .with_target(DeviceClassSpec::host_cpu());
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(odf, re);
    }

    #[test]
    fn bare_class_spec_round_trips() {
        let odf = OdfDocument::new("test.Bare", Guid(7))
            .with_target(DeviceClassSpec::of(class_ids::STORAGE));
        assert_eq!(odf.targets[0].name, "class-2");
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(odf, re);
    }

    #[test]
    fn footprint_round_trips() {
        let odf = OdfDocument::new("x", Guid(1)).with_footprint(64 * 1024);
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(re.footprint, Some(64 * 1024));
        assert_eq!(odf, re);
    }

    #[test]
    fn bad_footprint_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID><footprint>lots</footprint></package></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "package/footprint",
                ..
            }
        ));
    }

    #[test]
    fn traffic_round_trips() {
        let odf = OdfDocument::new("x", Guid(1)).with_traffic(TrafficSpec {
            rate_per_sec: 10_000,
            burst: 2,
            max_bytes: 16 * 1024,
        });
        let re = OdfDocument::parse(&odf.to_xml()).unwrap();
        assert_eq!(
            re.traffic,
            Some(TrafficSpec {
                rate_per_sec: 10_000,
                burst: 2,
                max_bytes: 16 * 1024,
            })
        );
        assert_eq!(odf, re);
    }

    #[test]
    fn traffic_defaults_and_clamps() {
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=500/></offcode>",
        )
        .unwrap();
        assert_eq!(
            odf.traffic,
            Some(TrafficSpec {
                rate_per_sec: 500,
                burst: 1,
                max_bytes: 1024,
            })
        );
        // A declared zero burst parses (and builds) as 1.
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=500 burst=0 bytes=64/></offcode>",
        )
        .unwrap();
        assert_eq!(odf.traffic.unwrap().burst, 1);
        let built = OdfDocument::new("x", Guid(1)).with_traffic(TrafficSpec {
            rate_per_sec: 500,
            burst: 0,
            max_bytes: 64,
        });
        assert_eq!(built.traffic.unwrap().burst, 1);
    }

    #[test]
    fn traffic_without_rate_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic burst=2/></offcode>",
        )
        .unwrap_err();
        assert_eq!(e, OdfError::Missing("traffic/rate"));
    }

    #[test]
    fn bad_traffic_rate_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>1</GUID></package>\
             <traffic rate=fast/></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "traffic/rate",
                ..
            }
        ));
    }

    #[test]
    fn missing_package_rejected() {
        assert_eq!(
            OdfDocument::parse("<offcode/>"),
            Err(OdfError::Missing("package"))
        );
    }

    #[test]
    fn missing_guid_rejected() {
        let e = OdfDocument::parse("<offcode><package><bindname>x</bindname></package></offcode>")
            .unwrap_err();
        assert_eq!(e, OdfError::Missing("package/GUID"));
    }

    #[test]
    fn bad_guid_rejected() {
        let e = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>banana</GUID></package></offcode>",
        )
        .unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "package/GUID",
                ..
            }
        ));
    }

    #[test]
    fn hex_guid_accepted() {
        let odf = OdfDocument::parse(
            "<offcode><package><bindname>x</bindname><GUID>0xff</GUID></package></offcode>",
        )
        .unwrap();
        assert_eq!(odf.guid, Guid(255));
    }

    #[test]
    fn wrong_root_rejected() {
        let e = OdfDocument::parse("<manifest/>").unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "root element",
                ..
            }
        ));
    }

    #[test]
    fn unknown_constraint_rejected() {
        let doc = r"<offcode>
  <package><bindname>x</bindname><GUID>1</GUID></package>
  <sw-env><import>
    <bindname>y</bindname><reference type=Sometimes/><GUID>2</GUID>
  </import></sw-env>
</offcode>";
        let e = OdfDocument::parse(doc).unwrap_err();
        assert!(matches!(
            e,
            OdfError::Invalid {
                what: "reference/type",
                ..
            }
        ));
    }

    #[test]
    fn import_without_reference_defaults_to_link() {
        let doc = r"<offcode>
  <package><bindname>x</bindname><GUID>1</GUID></package>
  <sw-env><import><bindname>y</bindname><GUID>2</GUID></import></sw-env>
</offcode>";
        let odf = OdfDocument::parse(doc).unwrap();
        assert_eq!(odf.imports[0].constraint, ConstraintKind::Link);
    }

    #[test]
    fn malformed_xml_is_surfaced() {
        assert!(matches!(
            OdfDocument::parse("<offcode>"),
            Err(OdfError::Xml(_))
        ));
    }

    #[test]
    fn constraint_kind_string_round_trip() {
        for k in [
            ConstraintKind::Link,
            ConstraintKind::Pull,
            ConstraintKind::Gang,
            ConstraintKind::AsymGang,
        ] {
            assert_eq!(ConstraintKind::from_str_opt(k.as_str()), Some(k));
        }
        assert_eq!(ConstraintKind::from_str_opt("nope"), None);
    }
}
