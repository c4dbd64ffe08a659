//! The traced benchmark binary: spans around every layer call, with the
//! counting allocator installed so spans carry allocation counts.

#[global_allocator]
static ALLOC: ag_harness::alloc::CountingAlloc = ag_harness::alloc::CountingAlloc;

fn main() {
    perfbench::main(true);
}
