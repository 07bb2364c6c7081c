//! `soak <scenario>…|all [--ci] [--seed N] [--out DIR]` — every stress
//! gate of the repo through one runner. See [`bench::soak`].

fn main() {
    std::process::exit(bench::soak::main(std::env::args().skip(1)));
}
