//! `repro -- lint` — static verification of deployments.
//!
//! With no arguments the built-in deployments are linted (the
//! observability demo plus the TiVo client and server ODF sets), each
//! against the full simulated testbed (host + programmable NIC + smart
//! disk + GPU). With paths, each file is parsed as either a single
//! `<offcode>` ODF or a `<deployment>` wrapper holding several
//! `<offcode>` children, and linted as one ODF set. Files that fail to
//! parse produce an `HV009` error diagnostic instead of aborting the
//! run.
//!
//! Output is the verifier's canonical JSON, wrapped per deployment, and
//! byte-identical across runs over the same inputs.

use std::fs;

use hydra_core::device::{DeviceDescriptor, DeviceRegistry};
use hydra_obs::json_str;
use hydra_odf::odf::OdfDocument;
use hydra_odf::xml;
use hydra_verify::{Diagnostic, HvCode, Loc, Report, Severity, VerifyInput};

/// One linted deployment: a name (built-in target or file path) and the
/// verifier's report for it.
#[derive(Debug, Clone)]
pub struct LintResult {
    /// Built-in target name (`demo`, `tivo-client`, `tivo-server`) or
    /// the fixture path as given on the command line.
    pub name: String,
    /// The verifier's findings for this deployment.
    pub report: Report,
}

/// The full simulated testbed every deployment is linted against: host
/// CPU, programmable NIC, smart disk, and GPU — the same registry the
/// demo deployment and the paper's experiments use.
pub(crate) fn testbed_table() -> hydra_verify::DeviceTable {
    let mut reg = DeviceRegistry::new();
    reg.install(DeviceDescriptor::programmable_nic());
    reg.install(DeviceDescriptor::smart_disk());
    reg.install(DeviceDescriptor::gpu());
    reg.verify_table()
}

fn verify_set(odfs: &[OdfDocument]) -> Report {
    let table = testbed_table();
    hydra_verify::verify(&VerifyInput {
        odfs,
        devices: &table,
        demands: None,
        roots: None,
    })
}

/// Parses a lint input file: either a single `<offcode>` document or a
/// `<deployment>` element wrapping several of them. Documents that fail
/// to parse become `HV009` diagnostics; the rest are still verified.
pub(crate) fn parse_deployment_file(text: &str) -> (Vec<OdfDocument>, Vec<Diagnostic>) {
    let mut odfs = Vec::new();
    let mut diags = Vec::new();
    match xml::parse(text) {
        Err(e) => diags.push(Diagnostic::new(
            HvCode::ParseError,
            Loc::Set,
            format!("not well-formed XML: {e}"),
        )),
        Ok(root) if root.name == "deployment" => {
            for (i, el) in root.children_named("offcode").enumerate() {
                match OdfDocument::from_element(el) {
                    Ok(odf) => odfs.push(odf),
                    Err(e) => diags.push(Diagnostic::new(
                        HvCode::ParseError,
                        Loc::Odf {
                            bind_name: format!("offcode[{i}]"),
                        },
                        format!("invalid ODF: {e}"),
                    )),
                }
            }
            if odfs.is_empty() && diags.is_empty() {
                diags.push(Diagnostic::new(
                    HvCode::ParseError,
                    Loc::Set,
                    "<deployment> holds no <offcode> elements".to_owned(),
                ));
            }
        }
        Ok(root) => match OdfDocument::from_element(&root) {
            Ok(odf) => odfs.push(odf),
            Err(e) => diags.push(Diagnostic::new(
                HvCode::ParseError,
                Loc::Set,
                format!("invalid ODF: {e}"),
            )),
        },
    }
    (odfs, diags)
}

/// Lints one file from disk. Unreadable files and parse failures are
/// reported as `HV009` diagnostics in a `parse` pass, never a panic.
pub fn lint_file(path: &str) -> LintResult {
    let (odfs, parse_diags) = match fs::read_to_string(path) {
        Ok(text) => parse_deployment_file(&text),
        Err(e) => (
            Vec::new(),
            vec![Diagnostic::new(
                HvCode::ParseError,
                Loc::Set,
                format!("cannot read file: {e}"),
            )],
        ),
    };
    let mut report = verify_set(&odfs);
    if !parse_diags.is_empty() {
        report.absorb("parse", 1, parse_diags);
    }
    LintResult {
        name: path.to_owned(),
        report,
    }
}

/// Lints the built-in deployments: the observability demo and the TiVo
/// client/server ODF sets.
pub fn lint_builtin() -> Vec<LintResult> {
    let targets: [(&str, Vec<OdfDocument>); 3] = [
        ("demo", hydra_tivo::demo::demo_odfs()),
        ("tivo-client", hydra_tivo::components::tivo_client_odfs()),
        ("tivo-server", hydra_tivo::components::tivo_server_odfs()),
    ];
    targets
        .into_iter()
        .map(|(name, odfs)| LintResult {
            name: name.to_owned(),
            report: verify_set(&odfs),
        })
        .collect()
}

/// Lints either the given fixture paths or, with none, the built-in
/// deployments.
pub fn run_lint(paths: &[&str]) -> Vec<LintResult> {
    if paths.is_empty() {
        lint_builtin()
    } else {
        paths.iter().map(|p| lint_file(p)).collect()
    }
}

/// True when any linted deployment has an error-severity diagnostic —
/// the condition under which `repro -- lint` exits non-zero.
pub fn any_errors(results: &[LintResult]) -> bool {
    results.iter().any(|r| r.report.has_errors())
}

/// Renders the combined results as canonical JSON — deterministic for a
/// given input set, ready for CI artifacts.
pub fn render_json(results: &[LintResult]) -> String {
    let mut out = String::from("{\"deployments\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"summary\":{},\"report\":{}}}",
            json_str(&r.name),
            json_str(&r.report.summary()),
            r.report.to_json()
        ));
    }
    let errors: usize = results
        .iter()
        .map(|r| r.report.count(Severity::Error))
        .sum();
    let warnings: usize = results
        .iter()
        .map(|r| r.report.count(Severity::Warning))
        .sum();
    out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
    out
}

/// Renders the combined results as human-readable lines (stderr side of
/// the CLI; stdout carries the JSON).
pub fn render_human(results: &[LintResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!("== {} ==\n", r.name));
        out.push_str(&r.report.render_human());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_deployments_are_clean() {
        let results = lint_builtin();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                !r.report.has_errors(),
                "{} must lint clean: {}",
                r.name,
                r.report.render_human()
            );
        }
    }

    #[test]
    fn builtin_lint_is_deterministic() {
        assert_eq!(render_json(&lint_builtin()), render_json(&lint_builtin()));
    }

    #[test]
    fn missing_file_yields_hv009() {
        let r = lint_file("/nonexistent/deployment.xml");
        assert!(r.report.has_errors());
        assert!(r.report.errors().any(|d| d.code == HvCode::ParseError));
    }

    #[test]
    fn deployment_wrapper_parses_multiple_offcodes() {
        let (odfs, diags) = parse_deployment_file(
            "<deployment>\
               <offcode><package><bindname>a</bindname><GUID>1</GUID></package></offcode>\
               <offcode><package><bindname>b</bindname><GUID>2</GUID></package></offcode>\
             </deployment>",
        );
        assert_eq!(odfs.len(), 2);
        assert!(diags.is_empty());
    }

    #[test]
    fn bad_xml_and_empty_deployment_yield_hv009() {
        let (odfs, diags) = parse_deployment_file("<not closed");
        assert!(odfs.is_empty());
        assert_eq!(diags.len(), 1);
        let (odfs, diags) = parse_deployment_file("<deployment></deployment>");
        assert!(odfs.is_empty());
        assert_eq!(diags[0].code, HvCode::ParseError);
    }
}
