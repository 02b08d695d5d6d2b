// Fixture: ad-hoc lock-poison handling. Expected findings: three
// `lock-poison-policy` violations.

fn unwraps(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

fn expects(m: &std::sync::RwLock<u32>) -> u32 {
    *m.read().expect("not poisoned")
}

fn inlines(m: &std::sync::RwLock<u32>) {
    *m.write().unwrap_or_else(std::sync::PoisonError::into_inner) = 7;
}
