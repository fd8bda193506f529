#[test]
fn tests_may_time_themselves() {
    let _ = std::time::Instant::now().elapsed().as_nanos();
}
