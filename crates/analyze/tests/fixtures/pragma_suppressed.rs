// Fixture: real violations, each covered by a well-formed pragma —
// one same-line, one own-line. Expected findings: none (two
// suppressions reported on stderr).

fn reads(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap() // rms-analyze: allow(lock-poison-policy, "fixture: demonstrates same-line suppression")
}

fn held_across_send(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::SyncSender<u32>) {
    let guard = recover_poisoned(m.lock());
    // rms-analyze: allow(guard-across-blocking, "fixture: demonstrates own-line suppression")
    tx.send(*guard).ok();
}
