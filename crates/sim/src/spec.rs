//! The one grammar behind every injection spec flag (`--fault-spec`,
//! `--mem-spec`, `--rank-spec`, `--io-spec`): a comma list of
//! `key=value` entries laid over a spec's defaults.
//!
//! Each spec supplies a key table — key name plus a setter that parses
//! the value into its field — and [`parse_spec`] does the rest: blank
//! entries are skipped, keys and values are trimmed, unknown keys list
//! the expected ones, and a repeated key simply runs its setter again
//! (so the last one wins, unless the setter accumulates). Range checks
//! are not the grammar's job; each spec's `validate` owns them.

use std::str::FromStr;

/// Parses one value into a spec field. The error is the reason the
/// value was rejected (e.g. `is not a number`); [`parse_spec`] prefixes
/// it with the spec kind and the offending entry.
pub type Setter<T> = fn(&mut T, &str) -> Result<(), String>;

/// Parses the `key=value` comma list `s` over `spec`, dispatching each
/// key through `keys`. `what` names the spec kind in error messages
/// (`fault` → "unknown fault spec key …").
pub fn parse_spec<T>(
    s: &str,
    what: &str,
    mut spec: T,
    keys: &[(&str, Setter<T>)],
) -> Result<T, String> {
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{what} spec entry `{part}` is not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        let Some((_, set)) = keys.iter().find(|(name, _)| *name == key) else {
            let expected: Vec<&str> = keys.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "unknown {what} spec key `{key}` (expected {})",
                expected.join("/")
            ));
        };
        set(&mut spec, value).map_err(|reason| format!("{what} spec {key}=`{value}` {reason}"))?;
    }
    Ok(spec)
}

/// Setter body for a real-valued field.
pub fn number(slot: &mut f64, value: &str) -> Result<(), String> {
    *slot = value.parse().map_err(|_| "is not a number".to_string())?;
    Ok(())
}

/// Setter body for an integral field.
pub fn integer<T: FromStr>(slot: &mut T, value: &str) -> Result<(), String> {
    *slot = value.parse().map_err(|_| "is not an integer".to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        rate: f64,
        count: u32,
        marks: Vec<u32>,
    }

    fn parse(s: &str) -> Result<Toy, String> {
        parse_spec(
            s,
            "toy",
            Toy::default(),
            &[
                ("rate", |t, v| number(&mut t.rate, v)),
                ("count", |t, v| integer(&mut t.count, v)),
                ("mark", |t, v| {
                    let mut mark = 0;
                    integer(&mut mark, v)?;
                    t.marks.push(mark);
                    Ok(())
                }),
            ],
        )
    }

    /// Blank entries are skipped, whitespace is trimmed, an entry
    /// without `=` is rejected, and a repeated key runs its setter
    /// again: plain fields keep the last value, accumulating setters
    /// (like `kill=`) append.
    #[test]
    fn grammar() {
        let t = parse(" rate = 0.5 ,, count=3 , ").unwrap();
        assert_eq!((t.rate, t.count), (0.5, 3));
        assert_eq!(parse("").unwrap(), Toy::default());
        assert_eq!(
            parse("rate=0.1, count").unwrap_err(),
            "toy spec entry `count` is not key=value"
        );
        let t = parse("count=1,mark=4,count=2,mark=5").unwrap();
        assert_eq!((t.count, t.marks), (2, vec![4, 5]));
    }
}
