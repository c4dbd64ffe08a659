//! The untraced benchmark binary: end-to-end metrics only.

fn main() {
    perfbench::main(false);
}
