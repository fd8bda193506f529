fn main() {
    println!("{}", std::time::Instant::now().elapsed().as_nanos());
}
