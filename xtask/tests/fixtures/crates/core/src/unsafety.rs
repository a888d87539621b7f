// Seeded unsafe-comment cases — fixture for xtask/tests/lint_fixtures.rs.
// Never compiled: it only has to *scan* like Rust.

fn unjustified(p: *const u8) -> u8 {
    unsafe { *p }
}

fn out_of_reach(p: *const u8) -> u8 {
    // Safety: this justification is one line out of reach.
    //
    //
    unsafe { *p }
}

unsafe fn undocumented_contract() {}

// None of the lines below may fire: each is justified within reach, or
// the keyword sits in a comment, a string or a longer identifier.

fn justified(p: *const u8) -> u8 {
    // Safety: the caller hands a valid, aligned pointer.
    unsafe { *p }
}

fn justified_in_caps(p: *const u8) -> u8 {
    // SAFETY: the caller hands a valid, aligned pointer.
    //
    unsafe { *p }
}

fn justified_on_the_line(p: *const u8) -> u8 {
    unsafe { *p } // Safety: the caller hands a valid, aligned pointer.
}

// unsafe { in a comment }
const DOC: &str = "unsafe { in a string }";
#![deny(unsafe_code)]
fn is_unsafe_name() {}
