//! Advanced end-to-end scenarios: user-defined resolution functions,
//! nested subprograms with up-level access, record signals, physical
//! types, and dynamic array attributes.

use sim_kernel::{Backend, Time, Val};
use vhdl_driver::Compiler;

fn ns(n: u64) -> Time {
    Time::fs(n * 1_000_000)
}

/// A user-defined resolution function written in VHDL, attached to a
/// resolved subtype, driven by two processes — the §2.1 bus-resolution
/// machinery end to end, using a dynamic `'length` over the drivers
/// vector.
#[test]
fn user_defined_resolution_function() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "package buslib is
               function wired_or (drivers : bit_vector) return bit;
               subtype rbit is wired_or bit;
             end buslib;
             package body buslib is
               function wired_or (drivers : bit_vector) return bit is
                 variable acc : bit := '0';
               begin
                 for i in 0 to drivers'length - 1 loop
                   acc := acc or drivers(i);
                 end loop;
                 return acc;
               end wired_or;
             end buslib;
             use work.buslib.all;
             entity bus_demo is end;
             architecture a of bus_demo is
               signal line : rbit := '0';
             begin
               d1 : process
               begin
                 line <= '1' after 5 ns, '0' after 20 ns;
                 wait;
               end process;
               d2 : process
               begin
                 line <= '0' after 5 ns, '1' after 10 ns;
                 wait;
               end process;
             end a;",
            "bus_demo",
        )
        .unwrap();
    sim.run_until(ns(7)).unwrap();
    assert_eq!(
        sim.value_by_name("bus_demo.line"),
        Some(&Val::Int(1)),
        "1 or 0 at 5ns"
    );
    sim.run_until(ns(12)).unwrap();
    assert_eq!(
        sim.value_by_name("bus_demo.line"),
        Some(&Val::Int(1)),
        "1 or 1 at 10ns"
    );
    sim.run_until(ns(25)).unwrap();
    assert_eq!(
        sim.value_by_name("bus_demo.line"),
        Some(&Val::Int(1)),
        "0 or 1 at 20ns: d1 low, d2 still high"
    );
}

/// Nested subprograms reaching up-level variables through static links —
/// the code-generation problem §1 calls out ("references to up-level
/// variables from within nested subprograms is supported in VHDL but not
/// in C").
#[test]
fn nested_subprogram_uplevel_access() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity nested is end;
             architecture a of nested is
               signal result : integer := 0;
             begin
               process
                 variable captured : integer := 40;
               begin
                 result <= captured + 2;
                 wait;
               end process;
             end a;",
            "nested",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(sim.value_by_name("nested.result"), Some(&Val::Int(42)));

    // A function declared inside a package calling a helper declared
    // before it (inter-subprogram calls through the library).
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "package helpers is
               function double (x : integer) return integer;
               function quad (x : integer) return integer;
             end helpers;
             package body helpers is
               function double (x : integer) return integer is
               begin
                 return x * 2;
               end double;
               function quad (x : integer) return integer is
               begin
                 return double(double(x));
               end quad;
             end helpers;
             use work.helpers.all;
             entity q is end;
             architecture a of q is
               signal r : integer := 0;
             begin
               process begin r <= quad(5); wait; end process;
             end a;",
            "q",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(sim.value_by_name("q.r"), Some(&Val::Int(20)));
}

/// Recursive functions through the uid-based call graph.
#[test]
fn recursive_function() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "package rec is
               function fib (n : integer) return integer;
             end rec;
             package body rec is
               function fib (n : integer) return integer is
               begin
                 if n < 2 then
                   return n;
                 end if;
                 return fib(n - 1) + fib(n - 2);
               end fib;
             end rec;
             use work.rec.all;
             entity f is end;
             architecture a of f is
               signal r : integer := 0;
             begin
               process begin r <= fib(10); wait; end process;
             end a;",
            "f",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(sim.value_by_name("f.r"), Some(&Val::Int(55)));
}

/// Record types: declaration, aggregate, field select/update.
#[test]
fn record_signals_and_variables() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity recs is end;
             architecture a of recs is
               type point is record
                 x : integer;
                 y : integer;
               end record;
               signal p : point := (x => 1, y => 2);
               signal mag : integer := 0;
             begin
               process
                 variable q : point := (x => 10, y => 20);
               begin
                 q.x := q.x + p.x;
                 mag <= q.x * q.x + q.y * q.y;
                 wait;
               end process;
             end a;",
            "recs",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(
        sim.value_by_name("recs.mag"),
        Some(&Val::Int(11 * 11 + 20 * 20))
    );
}

/// User physical types flow through arithmetic and delays.
#[test]
fn physical_types_in_simulation() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity phys is end;
             architecture a of phys is
               signal ticks : integer := 0;
             begin
               process
               begin
                 wait for 2 us;
                 ticks <= ticks + 1;
                 wait for 500 ns;
                 ticks <= ticks + 10;
                 wait;
               end process;
             end a;",
            "phys",
        )
        .unwrap();
    sim.run_until(Time::fs(3_000_000_000)).unwrap();
    assert_eq!(sim.value_by_name("phys.ticks"), Some(&Val::Int(11)));
    assert_eq!(sim.now().fs, 2_500_000_000);
}

/// `next`/`exit` interplay inside nested loops.
#[test]
fn loop_control_statements() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity loops is end;
             architecture a of loops is
               signal evens : integer := 0;
               signal stopped_at : integer := 0;
             begin
               process
                 variable acc : integer := 0;
               begin
                 for i in 1 to 100 loop
                   next when i mod 2 = 1;
                   acc := acc + i;
                   exit when i >= 10;
                 end loop;
                 evens <= acc;
                 -- while with exit
                 acc := 0;
                 while true loop
                   acc := acc + 1;
                   exit when acc = 7;
                 end loop;
                 stopped_at <= acc;
                 wait;
               end process;
             end a;",
            "loops",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(
        sim.value_by_name("loops.evens"),
        Some(&Val::Int(2 + 4 + 6 + 8 + 10))
    );
    assert_eq!(sim.value_by_name("loops.stopped_at"), Some(&Val::Int(7)));
}

/// Procedures with out-parameters are outside the subset, but procedures
/// with in-parameters and waits work.
#[test]
fn procedure_statement() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity procs is end;
             architecture a of procs is
               signal hits : integer := 0;
             begin
               process
                 procedure bump (amount : integer) is
                 begin
                   hits <= hits + amount;
                 end bump;
               begin
                 bump(5);
                 wait for 1 ns;
                 bump(2);
                 wait;
               end process;
             end a;",
            "procs",
        )
        .unwrap();
    sim.run_until(ns(5)).unwrap();
    assert_eq!(sim.value_by_name("procs.hits"), Some(&Val::Int(7)));
}

/// Selected signal assignment desugars into a case process.
#[test]
fn selected_signal_assignment() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity sel is end;
             architecture a of sel is
               signal s : integer := 0;
               signal y : bit := '0';
             begin
               with s mod 3 select
                 y <= '1' when 0,
                      '0' when 1 | 2,
                      '0' when others;
               driver : process
               begin
                 wait for 3 ns;
                 s <= s + 1;
               end process;
             end a;",
            "sel",
        )
        .unwrap();
    sim.run_until(ns(2)).unwrap();
    assert_eq!(sim.value_by_name("sel.y"), Some(&Val::Int(1)), "s=0 → '1'");
    sim.run_until(ns(5)).unwrap();
    assert_eq!(sim.value_by_name("sel.y"), Some(&Val::Int(0)), "s=1 → '0'");
}

/// Writing to an `in`-mode port is rejected at analysis time.
#[test]
fn in_port_write_rejected() {
    let c = Compiler::in_memory();
    let err = c
        .simulate(
            "entity sink is
               port (d : in bit);
             end sink;
             architecture a of sink is
             begin
               process begin d <= '1'; wait; end process;
             end a;",
            "sink",
        )
        .map(|_| ())
        .unwrap_err();
    assert!(err.contains("mode `in`"), "{err}");

    // Out-mode ports stay writable.
    let c = Compiler::in_memory();
    c.simulate(
        "entity src is
           port (q : out bit);
         end src;
         architecture a of src is
         begin
           process begin q <= '1'; wait; end process;
         end a;",
        "src",
    )
    .unwrap();
}

/// A negative assignment delay or `wait for` timeout is a runtime error
/// (VHDL-87 §8.1, §8.3), not a silent delta — under both backends.
#[test]
fn negative_delay_traps() {
    let assignment = "entity nd is end;
         architecture a of nd is
           signal s : bit := '0';
           signal t : integer := 0;
         begin
           process begin
             s <= '1' after (t - 5) * 1 ns;
             wait;
           end process;
         end a;";
    let timeout = "entity nd is end;
         architecture a of nd is
           signal t : integer := 0;
         begin
           process begin
             wait for (t - 5) * 1 ns;
           end process;
         end a;";
    for src in [assignment, timeout] {
        for backend in [Backend::Interp, Backend::Compiled] {
            let c = Compiler::in_memory();
            let mut sim = c.simulate(src, "nd").unwrap();
            sim.set_backend(backend);
            let err = sim.run_until(ns(1)).unwrap_err();
            assert!(err.to_string().contains("negative"), "{backend}: {err}");
            assert_eq!(sim.stats().fallback_procs, 0, "{backend}");
        }
    }
}
