// Input for `tools/count_lines.sh`, which must count 7 lines here: the
// three items outside `#[cfg(test)]`, and nothing of the three inside.
pub fn counted() -> u32 {
    1
}

#[cfg(test)]
fn helper() -> &'static str {
    // Braces in comments and literals close nothing: { {
    let _open = '{';
    let _close = "\"}";
    r#"}"#
}

pub fn counted_after_a_test_fn() {
    let _s = "}";
}

#[cfg(test)]
use std::fmt;

pub const COUNTED_AFTER_A_TEST_USE: u32 = 2;

#[cfg(test)]
mod tests {
    #[test]
    fn braces_in_a_test_module() {
        let _ = "{";
        /* } */
    }
}
