//! Smoke tests of the `vhdlc` command-line interface: on-disk work
//! library, elaboration, simulation, VCD and C outputs, error exit codes.

use std::path::PathBuf;
use std::process::Command;

fn vhdlc() -> Command {
    // Cargo builds this package's binaries before its integration tests
    // and names their paths at compile time.
    Command::new(env!("CARGO_BIN_EXE_vhdlc"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vhdlc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn compile_elaborate_simulate_roundtrip() {
    let dir = tmpdir("ok");
    let src = dir.join("blinker.vhd");
    std::fs::write(
        &src,
        "entity blinker is end;
         architecture a of blinker is
           signal led : bit := '0';
         begin
           process
           begin
             led <= not led after 5 ns;
             wait on led;
           end process;
           assert led = '0' or led = '1' report \"impossible\" severity note;
         end a;",
    )
    .unwrap();
    let work = dir.join("work");
    let vcd = dir.join("waves.vcd");
    let c = dir.join("out.c");
    let out = vhdlc()
        .args([
            "--work",
            work.to_str().unwrap(),
            "--elab",
            "blinker",
            "--run",
            "50",
            "--vcd",
            vcd.to_str().unwrap(),
            "--emit-c",
            c.to_str().unwrap(),
            "--stats",
            src.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Artifacts exist and look right.
    let vcd_text = std::fs::read_to_string(&vcd).unwrap();
    assert!(vcd_text.contains("$var"), "{vcd_text}");
    assert!(vcd_text.matches('\n').count() > 10, "waveform has edges");
    let c_text = std::fs::read_to_string(&c).unwrap();
    assert!(c_text.contains("vhdl_kernel.h"));
    // The work library persists: a second invocation elaborates without
    // recompiling sources.
    let out2 = vhdlc()
        .args([
            "--work",
            work.to_str().unwrap(),
            "--elab",
            "blinker",
            "--run",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("phases:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compiled_backend_matches_interpreter_vcd() {
    let dir = tmpdir("backend");
    let src = dir.join("counter.vhd");
    std::fs::write(
        &src,
        "entity counter is end;
         architecture a of counter is
           signal clk : bit := '0';
         begin
           process
           begin
             clk <= not clk after 3 ns;
             wait on clk;
           end process;
         end a;",
    )
    .unwrap();
    let run = |backend: &str, vcd: &std::path::Path| {
        let out = vhdlc()
            .args([
                "--elab",
                "counter",
                "--run",
                "60",
                "--backend",
                backend,
                "--vcd",
                vcd.to_str().unwrap(),
                "--stats",
                src.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--backend {backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let vcd_i = dir.join("interp.vcd");
    let vcd_c = dir.join("compiled.vcd");
    let stderr_i = run("interp", &vcd_i);
    let stderr_c = run("compiled", &vcd_c);
    // Byte-identical waveforms, and the compiled engine really ran.
    assert_eq!(
        std::fs::read(&vcd_i).unwrap(),
        std::fs::read(&vcd_c).unwrap()
    );
    assert!(
        stderr_i.contains("backend: interp, 0 compiled_blocks"),
        "{stderr_i}"
    );
    assert!(stderr_c.contains("backend: compiled"), "{stderr_c}");
    let blocks: u64 = stderr_c
        .lines()
        .find_map(|l| l.strip_prefix("backend: compiled, "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(blocks > 0, "no compiled blocks executed: {stderr_c}");
    assert!(stderr_c.contains("0 fallback_procs"), "{stderr_c}");
    // An unknown backend is a usage error.
    let out = vhdlc()
        .args(["--backend", "jit", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn semantic_errors_fail_with_positions() {
    let dir = tmpdir("err");
    let src = dir.join("bad.vhd");
    std::fs::write(
        &src,
        "entity e is end;
         architecture a of e is
           signal s : bit;
         begin
           s <= undefined_name;
         end a;",
    )
    .unwrap();
    let out = vhdlc().args([src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undefined_name"), "{stderr}");
    assert!(stderr.contains("5:"), "position in: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parse_errors_fail() {
    let dir = tmpdir("parse");
    let src = dir.join("bad.vhd");
    std::fs::write(&src, "entity entity entity").unwrap();
    let out = vhdlc().args([src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_option_is_usage_error() {
    let out = vhdlc().args(["--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn batch_mode_compiles_out_of_order_files_in_parallel() {
    let dir = tmpdir("batch");
    // Listed out of dependency order on purpose: batch mode stages them.
    let files = [
        (
            "rtl.vhd",
            "use work.consts.all;
             architecture rtl of top is
               signal s : integer := width;
             begin
               s <= width + 1;
             end rtl;",
        ),
        ("top.vhd", "entity top is end;"),
        (
            "consts.vhd",
            "package consts is
               constant width : integer := 4;
             end consts;",
        ),
    ];
    let mut paths = Vec::new();
    for (name, text) in files {
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap();
        paths.push(p);
    }
    let work = dir.join("work");
    let mut args = vec![
        "--work".to_string(),
        work.to_str().unwrap().to_string(),
        "--jobs".to_string(),
        "4".to_string(),
        "--stats".to_string(),
    ];
    args.extend(paths.iter().map(|p| p.to_str().unwrap().to_string()));
    let out = vhdlc().args(&args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("3 units"), "{stderr}");
    assert!(stderr.contains("cache hit 0 miss 0 cold 3"), "{stderr}");

    // Second run with --incremental skips every analysis.
    let mut args2 = args.clone();
    args2.insert(4, "--incremental".to_string());
    let out = vhdlc().args(&args2).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("cache hit 3 miss 0 cold 0"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
