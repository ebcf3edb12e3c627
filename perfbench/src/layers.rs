//! Folding the kernel's per-rule profile into the simulator's layers.
//!
//! `SocSim` registers one rule per pipeline action per core (`c0.rename1`,
//! `c3.issueLd`, ...) plus the shared `substrate`. [`group_of`] maps every
//! such name to exactly one layer group; a name it does not know is an
//! error, so a renamed or new rule cannot silently drop out of the
//! per-module numbers.

/// The layer groups per-rule host time is folded into.
pub const GROUPS: [&str; 7] = [
    "ooo.frontend",
    "ooo.rename",
    "ooo.issue",
    "ooo.exec",
    "ooo.commit",
    "ooo.lsq",
    "mem.substrate",
];

/// The group of rule `name`, or `None` for a name no group claims.
#[must_use]
pub fn group_of(name: &str) -> Option<&'static str> {
    if name == "substrate" {
        return Some("mem.substrate");
    }
    // Core rules are `c<core>.<action><lane>`.
    let rest = name.strip_prefix('c')?;
    let (core, action) = rest.split_once('.')?;
    if core.is_empty() || !core.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let base = action.trim_end_matches(|c: char| c.is_ascii_digit());
    Some(match base {
        "fetch" | "fetchResp" | "decode" => "ooo.frontend",
        "rename" => "ooo.rename",
        "issueAlu" | "issueMd" | "issueMem" => "ooo.issue",
        "aluExec" | "mdExec" | "addrCalc" | "aluWb" | "mdWb" | "forward" => "ooo.exec",
        "commit" => "ooo.commit",
        "updateLsq" | "issueLd" | "respLd" | "deqLd" | "deqSt" | "respSt" | "cacheEvict"
        | "sbIssue" => "ooo.lsq",
        _ => return None,
    })
}

/// One rule's row of `SocSim::profile_json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleRow {
    /// Registered rule name.
    pub name: String,
    /// Firings.
    pub fired: u64,
    /// Evaluations stopped by a guard.
    pub guard_stalls: u64,
    /// Evaluations stopped by a conflict-matrix check.
    pub cm_stalls: u64,
    /// Evaluations that ran the body.
    pub evals: u64,
    /// Evaluations skipped while the rule slept.
    pub skipped: u64,
    /// Host nanoseconds inside the body.
    pub body_ns: u64,
}

/// Extracts the `"rules"` array of a `profile_json` document.
///
/// The document is the simulator's own output; this reads only the flat
/// rule objects and their unsigned-integer and string fields.
///
/// # Errors
///
/// A message naming the first thing that did not parse.
pub fn parse_rules(json: &str) -> Result<Vec<RuleRow>, String> {
    let start = json
        .find("\"rules\":[")
        .ok_or("profile has no rules array")?
        + "\"rules\":[".len();
    let body = &json[start..];
    let end = body.find(']').ok_or("unterminated rules array")?;
    let mut rows = Vec::new();
    for obj in body[..end].split('}') {
        let obj = obj.trim_start_matches(',').trim_start_matches('{');
        if obj.trim().is_empty() {
            continue;
        }
        let mut row = RuleRow::default();
        for field in split_fields(obj) {
            let (k, v) = field.split_once(':').ok_or("field without a colon")?;
            let k = k.trim().trim_matches('"');
            let num = || v.trim().parse::<u64>().map_err(|e| format!("{k}: {e}"));
            match k {
                "name" => row.name = v.trim().trim_matches('"').to_string(),
                "fired" => row.fired = num()?,
                "guard_stalls" => row.guard_stalls = num()?,
                "cm_stalls" => row.cm_stalls = num()?,
                "evals" => row.evals = num()?,
                "skipped" => row.skipped = num()?,
                "body_ns" => row.body_ns = num()?,
                _ => {}
            }
        }
        if row.name.is_empty() {
            return Err("rule object without a name".into());
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Splits `"a":1,"b":"x,y"` at the commas outside string literals.
fn split_fields(obj: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_str, mut escaped) = (0, false, false);
    for (i, c) in obj.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&obj[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&obj[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use riscy_ooo::soc::SocSim;

    fn registered_rules(w: Workload) -> Vec<String> {
        let img = w.generate(1, 0);
        let sim = SocSim::new(w.core_config(), w.mem_config(), w.cores(), &img.program);
        parse_rules(&sim.profile_json())
            .expect("profile parses")
            .into_iter()
            .map(|r| r.name)
            .collect()
    }

    #[test]
    fn every_registered_rule_folds_into_exactly_one_group() {
        for w in [Workload::OooCompute, Workload::MulticoreTso] {
            let names = registered_rules(w);
            assert!(names.len() > 20 * w.cores(), "{}: {names:?}", w.name());
            for n in &names {
                let g =
                    group_of(n).unwrap_or_else(|| panic!("{}: rule `{n}` is unmapped", w.name()));
                assert!(GROUPS.contains(&g));
            }
            // Every group is populated on every configuration.
            for g in GROUPS {
                assert!(names.iter().any(|n| group_of(n) == Some(g)), "{g} is empty");
            }
        }
    }

    #[test]
    fn unknown_names_are_unmapped() {
        for n in [
            "c0.renameX",
            "cx.fetch",
            "c.fetch",
            "c0.prefetch",
            "substrate2",
            "fetch",
        ] {
            assert_eq!(group_of(n), None, "{n}");
        }
        assert_eq!(group_of("c12.aluExec1"), Some("ooo.exec"));
    }

    #[test]
    fn parses_string_fields_with_commas() {
        let rows = parse_rules(r#"{"x":1,"rules":[{"name":"a,b","fired":3,"body_ns":9},{"name":"c","evals":2}],"y":[]}"#)
            .expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a,b");
        assert_eq!((rows[0].fired, rows[0].body_ns, rows[1].evals), (3, 9, 2));
    }
}
