// Fixture: pragma hygiene. Expected `pragma` findings: a reason-less
// pragma, an unquoted reason, an unknown rule id, and an unused pragma
// covering a clean line. The broken pragmas suppress nothing, so the
// ad-hoc poison handling in a/b/c also surfaces as `lock-poison-policy`.

fn a(m: &std::sync::Mutex<u32>) -> u32 {
    // rms-analyze: allow(lock-poison-policy)
    *m.lock().unwrap()
}

fn b(m: &std::sync::Mutex<u32>) -> u32 {
    // rms-analyze: allow(lock-poison-policy, because reasons)
    *m.lock().unwrap()
}

fn c(m: &std::sync::Mutex<u32>) -> u32 {
    // rms-analyze: allow(no-such-rule, "the rule id is wrong")
    *m.lock().unwrap()
}

fn d(m: &std::sync::Mutex<u32>) -> u32 {
    // rms-analyze: allow(lock-poison-policy, "nothing to suppress here")
    *recover_poisoned(m.lock())
}
