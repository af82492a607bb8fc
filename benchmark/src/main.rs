//! `tango-benchmark`: see `--help` and `README.md`.

#[global_allocator]
static GLOBAL: tango_benchmark::alloc::Counting = tango_benchmark::alloc::Counting;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tango_benchmark::cli::main(&argv));
}
