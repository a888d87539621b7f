// Two environment reads, which fire (a test allowlists the second by its
// substring), and decoys in a comment and a string that never fire.
pub fn hatch() -> bool {
    std::env::var("SIMSUB_DECOY").is_ok()
}

pub fn allowed() -> bool {
    std::env::var_os("SIMSUB_ALLOWED").is_some()
}

// std::env::var("IN_A_COMMENT") is prose, not a read.
pub const TEXT: &str = "std::env::var(\"IN_A_STRING\")";
