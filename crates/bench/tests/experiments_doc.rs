//! The "Regenerated report" section of `EXPERIMENTS.md` must be the golden
//! `all_figures` output (`golden/all_figures.md`) without its title line,
//! byte for byte. CI already diffs `all_figures` stdout against the golden
//! file, so together they keep the document equal to what the code prints.

const DOC: &str = include_str!("../../../EXPERIMENTS.md");
const GOLDEN: &str = include_str!("../golden/all_figures.md");

/// The paragraph that introduces the report; the report starts after it.
const INTRO: &str = "The output below is `all_figures` verbatim from this checkout";

#[test]
fn regenerated_report_matches_golden_figures() {
    let (title, body) = GOLDEN.split_once("\n\n").expect("golden has a title");
    assert!(title.starts_with("# "), "golden starts with its H1 title");
    let (_, after_intro) = DOC
        .split_once(INTRO)
        .expect("EXPERIMENTS.md introduces the regenerated report");
    let (_, report) = after_intro
        .split_once("\n\n")
        .expect("the report follows the intro paragraph");
    if report != body {
        let line = report
            .lines()
            .zip(body.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| report.lines().count().min(body.lines().count()));
        panic!(
            "EXPERIMENTS.md's regenerated report diverges from golden/all_figures.md \
             at report line {}:\n  doc:    {:?}\n  golden: {:?}\n\
             Replace the report with the golden file minus its title line.",
            line + 1,
            report.lines().nth(line),
            body.lines().nth(line)
        );
    }
}
