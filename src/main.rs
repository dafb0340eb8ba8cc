//! The `xflow` command-line tool: project hot spots, hot paths, and
//! bottlenecks of minilang programs on parameterized machine models.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", xflow::cli::USAGE);
        std::process::exit(2);
    }
    match xflow::cli::execute(&args) {
        Ok(out) => print!("{out}"),
        Err(f) => {
            eprintln!("error: {}", f.message);
            std::process::exit(f.status);
        }
    }
}
