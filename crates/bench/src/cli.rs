//! The one flag parser behind `repro` and `lmoffload`: `--key value` or
//! `--key=value`, every value validated where it enters. Anything the
//! caller does not recognise is its error to report — a mistyped flag
//! must not silently run on defaults.

/// `--key` or `--key=value` split into its parts; `None` for a
/// positional argument.
pub fn split_flag(arg: &str) -> Option<(&str, Option<&str>)> {
    let flag = arg.strip_prefix("--")?;
    Some(match flag.split_once('=') {
        Some((key, value)) => (key, Some(value)),
        None => (flag, None),
    })
}

/// The value of flag `--key`, from `--key=v` (`inline`) or the next
/// argument, checked by `validate`; `expects` words the error.
pub fn flag_value<'a, T>(
    key: &str,
    inline: Option<&'a str>,
    rest: &mut impl Iterator<Item = &'a String>,
    expects: &str,
    validate: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let v = inline
        .or_else(|| rest.next().map(String::as_str))
        .ok_or_else(|| format!("--{key} expects {expects}, got nothing"))?;
    validate(v).ok_or_else(|| format!("--{key} expects {expects}, got '{v}'"))
}
