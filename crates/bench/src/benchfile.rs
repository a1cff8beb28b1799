//! The `BENCH_*.json` perf-trajectory files at the repo root: one
//! envelope — `{"schema": <id>, "entries": [{"label": <non-empty>, …}]}`
//! — and one load/check/append path. Each bench supplies only its
//! *entry rule*: its own field table and gates.

use std::process::ExitCode;

use crate::cli::Args;
use crate::json::{parse_json, Json};

/// Checks one entry of a bench file (the envelope is already valid).
pub type EntryRule = fn(&Json) -> Result<(), String>;

/// The flags the four benches share: `--smoke` (tiny workloads, no JSON
/// write), `--check` (validate the committed JSON), `--label <name>`
/// (label of the appended entry, default "current").
pub fn bench_flags(args: &mut Args) -> Result<(bool, bool, String), ExitCode> {
    let (smoke, check) = (args.flag("--smoke"), args.flag("--check"));
    let label = args.value("--label").unwrap_or_else(|| "current".to_string());
    if label.is_empty() {
        args.reject("--label must not be empty".to_string());
    }
    args.finish().map(|()| (smoke, check, label))
}

/// `obj[field]` as a number, or an error naming the field.
pub fn need_num(obj: &Json, field: &str) -> Result<f64, String> {
    obj.get(field).and_then(Json::as_num).ok_or_else(|| format!("missing numeric '{field}'"))
}

/// Every field of `fields` is numeric in `obj`.
pub fn need_nums(obj: &Json, fields: &[&str]) -> Result<(), String> {
    fields.iter().try_for_each(|f| need_num(obj, f).map(drop))
}

/// `obj[field]` is a 16-digit hex fingerprint string.
pub fn need_hex16(obj: &Json, field: &str) -> Result<(), String> {
    match obj.get(field) {
        Some(Json::Str(s)) if s.len() == 16 => Ok(()),
        _ => Err(format!("missing 16-hex '{field}'")),
    }
}

/// `obj[field]` as a non-empty array.
pub fn need_rows<'a>(obj: &'a Json, field: &str) -> Result<&'a [Json], String> {
    match obj.get(field) {
        Some(Json::Arr(rows)) if !rows.is_empty() => Ok(rows),
        _ => Err(format!("'{field}' must be a non-empty array")),
    }
}

/// Exit status of a check or append: a failure goes to stderr as status 1.
pub fn report(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One `BENCH_*.json` artifact.
pub struct BenchFile<'a> {
    pub path: &'a str,
    pub schema: &'a str,
}

impl BenchFile<'_> {
    fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(self.path)
    }

    /// Validates the envelope and every entry; errors name the entry index.
    fn validate<'d>(&self, doc: &'d Json, rule: EntryRule) -> Result<&'d [Json], String> {
        match doc.get("schema") {
            Some(Json::Str(s)) if s == self.schema => {}
            _ => return Err(format!("top-level 'schema' must be \"{}\"", self.schema)),
        }
        let Some(Json::Arr(entries)) = doc.get("entries") else {
            return Err("top-level 'entries' must be an array".into());
        };
        if entries.is_empty() {
            return Err("'entries' must not be empty".into());
        }
        for (i, entry) in entries.iter().enumerate() {
            match entry.get("label") {
                Some(Json::Str(s)) if !s.is_empty() => rule(entry),
                _ => Err("missing non-empty 'label'".to_string()),
            }
            .map_err(|msg| format!("entry {i}: {msg}"))?;
        }
        Ok(entries)
    }

    /// Loads and validates the file (`--check`); returns its entries.
    pub fn check(&self, rule: EntryRule) -> Result<Vec<Json>, String> {
        let name = self.name();
        let text = std::fs::read_to_string(self.path)
            .map_err(|e| format!("{name}: read {}: {e}", self.path))?;
        let doc = parse_json(&text).map_err(|e| format!("{name}: {e}"))?;
        let entries =
            self.validate(&doc, rule).map_err(|e| format!("{name} schema violation: {e}"))?;
        println!("{name}: schema ok, {} entries", entries.len());
        Ok(entries.to_vec())
    }

    /// Appends `{label, ..fields}` (creating the file on first use) and
    /// re-validates the whole document before writing it.
    pub fn append(
        &self,
        label: &str,
        fields: Vec<(String, Json)>,
        rule: EntryRule,
    ) -> Result<(), String> {
        let name = self.name();
        let mut doc = match std::fs::read_to_string(self.path) {
            Ok(text) => parse_json(&text).map_err(|e| format!("existing {name} invalid: {e}"))?,
            Err(_) => Json::Obj(vec![
                ("schema".into(), Json::Str(self.schema.into())),
                ("entries".into(), Json::Arr(Vec::new())),
            ]),
        };
        let mut entry = vec![("label".to_string(), Json::Str(label.to_string()))];
        entry.extend(fields);
        match &mut doc {
            Json::Obj(top) => match top.iter_mut().find(|(k, _)| k == "entries") {
                Some((_, Json::Arr(entries))) => entries.push(Json::Obj(entry)),
                _ => return Err(format!("existing {name} has no 'entries' array")),
            },
            _ => return Err(format!("existing {name} is not an object")),
        }
        self.validate(&doc, rule)
            .map_err(|e| format!("{name}: generated entry violates the schema: {e}"))?;
        std::fs::write(self.path, doc.to_string_pretty())
            .map_err(|e| format!("{name}: write: {e}"))?;
        println!("\n  appended entry '{label}' to {name}");
        Ok(())
    }
}
