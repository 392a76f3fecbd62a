//! A deliberately minimal JSON-Schema validator — just the keywords
//! `docs/bench-load.schema.json` uses: `type`, `properties`, `required`,
//! `additionalProperties` (boolean form), `items`, `enum`, `minItems`.
//! Nothing here aims at spec completeness; it exists so the checked-in
//! schema is *executable* in CI rather than documentation-only.

use crate::json::Value;

/// Validate `doc` against `schema`. Returns every violation found,
/// each with a JSON-pointer-ish path; empty means valid.
pub fn validate(doc: &Value, schema: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    check(doc, schema, "$", &mut errors);
    errors
}

fn check(doc: &Value, schema: &Value, at: &str, errors: &mut Vec<String>) {
    if let Some(Value::Str(ty)) = schema.get("type") {
        let actual = doc.type_name();
        let ok = match ty.as_str() {
            // Integers satisfy "number"; "integer" requires no fraction.
            "number" => matches!(actual, "number" | "integer"),
            expected => actual == expected,
        };
        if !ok {
            errors.push(format!("{at}: expected type {ty}, got {actual}"));
            return; // structural keywords below would only cascade
        }
    }
    if let Some(Value::Arr(options)) = schema.get("enum") {
        if !options.contains(doc) {
            errors.push(format!("{at}: value not in enum"));
        }
    }
    if let Value::Obj(map) = doc {
        if let Some(Value::Arr(required)) = schema.get("required") {
            for r in required {
                if let Value::Str(key) = r {
                    if !map.contains_key(key) {
                        errors.push(format!("{at}: missing required property `{key}`"));
                    }
                }
            }
        }
        let props = schema.get("properties");
        for (key, val) in map {
            match props.and_then(|p| p.get(key)) {
                Some(sub) => check(val, sub, &format!("{at}.{key}"), errors),
                None => {
                    if schema.get("additionalProperties") == Some(&Value::Bool(false)) {
                        errors.push(format!("{at}: unexpected property `{key}`"));
                    }
                }
            }
        }
    }
    if let Value::Arr(items) = doc {
        if let Some(Value::Num(min)) = schema.get("minItems") {
            if (items.len() as f64) < *min {
                errors.push(format!("{at}: fewer than {min} items"));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item, item_schema, &format!("{at}[{i}]"), errors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const SCHEMA: &str = r#"{
        "type": "object",
        "required": ["name", "items"],
        "additionalProperties": false,
        "properties": {
            "name": {"type": "string"},
            "kind": {"type": "string", "enum": ["a", "b"]},
            "items": {"type": "array", "items": {"type": "integer"}}
        }
    }"#;

    #[test]
    fn accepts_conforming_doc() {
        let doc = parse(r#"{"name": "x", "kind": "a", "items": [1, 2]}"#).expect("doc");
        let schema = parse(SCHEMA).expect("schema");
        assert!(validate(&doc, &schema).is_empty());
    }

    #[test]
    fn reports_each_violation() {
        let doc = parse(r#"{"kind": "z", "items": ["no"], "extra": 1}"#).expect("doc");
        let schema = parse(SCHEMA).expect("schema");
        let errs = validate(&doc, &schema);
        assert!(errs.iter().any(|e| e.contains("missing required property `name`")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("not in enum")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("expected type integer")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("unexpected property `extra`")), "{errs:?}");
    }

    #[test]
    fn wrong_toplevel_type() {
        let schema = parse(r#"{"type": "object"}"#).expect("schema");
        let errs = validate(&parse("[1]").expect("doc"), &schema);
        assert_eq!(errs.len(), 1);
    }
}
