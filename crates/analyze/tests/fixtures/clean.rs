//! Negative fixture: tricky-but-legal code on which every pass must
//! stay silent. Mentions of banned patterns live only in comments,
//! strings, and test code — exactly what the old line-regex lint got
//! wrong.
//!
//! For example `.unwrap()` in this doc comment is not code.

// The string below is data, not a call — and the marker inside it must
// not justify anything.
fn describe() -> &'static str {
    "call .unwrap() and add // unwrap-ok: to silence (says the README)"
}

// `unwrap_or` and friends are not `.unwrap()`.
fn fallback(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
