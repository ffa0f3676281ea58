//! Two helpers for building the vendored serde value tree by hand.

use serde::{Map, Value};

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}
