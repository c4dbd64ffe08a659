//! Seeded input generators and their independent reference model.
//!
//! A [`Project`] is a multi-file VHDL design: packages with constants and
//! functions, clocked leaf cells (counters, LFSRs, compute cells with a
//! loop and a recursive function), and a testbench with a clock, a
//! resolved multi-driver bus, a shift chain of one-stage processes, and a
//! configuration unit. [`Project::expect`] computes every checked signal's
//! value after `n` rising clock edges by re-implementing the design's
//! arithmetic in Rust (bit operations where the VHDL uses division and
//! `mod`); it never looks at anything the compiler produced.

use std::fmt::Write as _;

use ag_harness::rng::Rng;

/// Clock period of every generated testbench, in nanoseconds.
pub const PERIOD_NS: u64 = 10;

/// Simulated time (fs) at which exactly `n` rising edges (at 0, 10, ...
/// `(n-1)*10` ns) and their delta cycles have been simulated.
pub fn time_after_edges(n: u64) -> u64 {
    ((n.max(1) - 1) * PERIOD_NS + 7) * 1_000_000
}

/// One package: four step constants and `f(x) = (x*a + b) mod m`.
#[derive(Clone, Debug, PartialEq)]
pub struct Pkg {
    pub consts: [i64; 4],
    pub fa: i64,
    pub fb: i64,
    pub fm: i64,
}

impl Pkg {
    fn f(&self, x: i64) -> i64 {
        (x * self.fa + self.fb).rem_euclid(self.fm)
    }
}

/// What a leaf cell computes on every rising edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `cnt := (cnt + C) mod m; q <= f(cnt)`.
    Counter { m: i64 },
    /// 16-bit Fibonacci LFSR (taps 16, 14, 13, 11); `q <= (r + C) mod 65536`.
    Lfsr,
    /// A `0 to l` loop of multiply-adds, then `rec(cnt mod 4 + base)`.
    Compute { l: i64, base: i64 },
}

/// One leaf cell entity/architecture pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub kind: Kind,
    /// Package whose constant and function the cell uses.
    pub pkg: usize,
    /// Which of the package's constants is the step.
    pub konst: usize,
    /// Initial value of the cell's state variable.
    pub init: i64,
}

/// An LCG `r := (r*a + c) mod m` seen through its low bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lcg {
    pub seed: i64,
    pub a: i64,
    pub c: i64,
    pub m: i64,
}

impl Lcg {
    fn step(&self, r: i64) -> i64 {
        (r * self.a + self.c).rem_euclid(self.m)
    }

    fn draw(rng: &mut Rng) -> Lcg {
        let m = *pick(rng, &[1024i64, 2048, 4096]);
        Lcg {
            seed: rng.u64_in(1, m as u64 - 1) as i64,
            a: 4 * rng.u64_in(1, 15) as i64 + 1,
            c: 2 * rng.u64_in(0, 40) as i64 + 1,
            m,
        }
    }
}

/// A generated project.
#[derive(Clone, Debug, PartialEq)]
pub struct Project {
    pub pkgs: Vec<Pkg>,
    /// Bus resolution: `true` = or of all drivers, `false` = xor.
    pub res_or: bool,
    pub cells: Vec<Cell>,
    /// Bus driver processes in the testbench.
    pub bus: Vec<Lcg>,
    /// Input of the shift chain and its stage count.
    pub shift_in: Lcg,
    pub shift_len: usize,
}

/// Size knobs of a project.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub pkgs: usize,
    pub cells: (usize, usize),
    pub bus: usize,
    pub shift_len: usize,
}

/// `compile`/`serve` projects: a handful of files, a few hundred lines.
pub const SMALL: Shape = Shape {
    pkgs: 3,
    cells: (6, 10),
    bus: 3,
    shift_len: 4,
};

/// `serve` base libraries: [`SMALL`] at a fixed size. A run serves one
/// project, so a drawn size would move every figure of the run with the
/// seed.
pub const SERVE: Shape = Shape {
    cells: (8, 8),
    ..SMALL
};

/// `simulate` designs: many small clocked processes.
pub const RTL: Shape = Shape {
    pkgs: 3,
    cells: (28, 28),
    bus: 4,
    shift_len: 12,
};

fn pick<'a, T>(rng: &mut Rng, xs: &'a [T]) -> &'a T {
    &xs[rng.u64_in(0, xs.len() as u64 - 1) as usize]
}

/// Mixes a workload seed with a stream index into a generator seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn draw_const(rng: &mut Rng) -> i64 {
    rng.u64_in(1, 97) as i64
}

impl Project {
    /// Draws a project of the given shape.
    pub fn generate(seed: u64, shape: Shape) -> Project {
        let mut rng = Rng::new(seed);
        let pkgs = (0..shape.pkgs)
            .map(|_| Pkg {
                consts: [0; 4].map(|_| draw_const(&mut rng)),
                fa: rng.u64_in(2, 9) as i64,
                fb: rng.u64_in(0, 99) as i64,
                fm: *pick(&mut rng, &[251i64, 509, 1021]),
            })
            .collect();
        let n_cells = rng.u64_in(shape.cells.0 as u64, shape.cells.1 as u64) as usize;
        // Kinds and the compute cells' loop and recursion depths follow
        // the cell's position, so every project of a shape does the same
        // work per clock; the seed draws every value.
        let cells = (0..n_cells)
            .map(|i| {
                let kind = match i % 4 {
                    0 | 2 => Kind::Counter {
                        m: *pick(&mut rng, &[256i64, 1000, 4096]),
                    },
                    1 => Kind::Lfsr,
                    _ => Kind::Compute {
                        l: 6 + (i / 4) as i64 % 4,
                        base: 5 + (i / 4) as i64 % 3,
                    },
                };
                let init = match kind {
                    Kind::Lfsr => rng.u64_in(1, 65535) as i64,
                    _ => rng.u64_in(0, 200) as i64,
                };
                Cell {
                    kind,
                    pkg: rng.u64_in(0, shape.pkgs as u64 - 1) as usize,
                    konst: rng.u64_in(0, 3) as usize,
                    init,
                }
            })
            .collect();
        Project {
            pkgs,
            res_or: rng.u64_in(0, 1) == 1,
            cells,
            bus: (0..shape.bus).map(|_| Lcg::draw(&mut rng)).collect(),
            shift_in: Lcg::draw(&mut rng),
            shift_len: shape.shift_len,
        }
    }

    /// Source files, `(name, text)`, in a fixed order that is not the
    /// dependency order (the batch compiler stages them).
    pub fn files(&self) -> Vec<(String, String)> {
        let mut out = vec![("tb.vhd".to_string(), self.tb_file())];
        for i in 0..self.cells.len() {
            out.push((format!("cell{i}.vhd"), self.cell_file(i)));
        }
        for k in 0..self.pkgs.len() {
            out.push((format!("pk{k}.vhd"), self.pkg_file(k)));
        }
        out.push(("pkres.vhd".to_string(), self.res_file()));
        out
    }

    fn pkg_file(&self, k: usize) -> String {
        let p = &self.pkgs[k];
        let mut s = String::new();
        let _ = writeln!(s, "package pk{k} is");
        for (j, c) in p.consts.iter().enumerate() {
            let _ = writeln!(s, "  constant c{k}_{j} : integer := {c};");
        }
        let _ = writeln!(s, "  function f{k} (x : integer) return integer;");
        let _ = writeln!(s, "end pk{k};");
        let _ = writeln!(s, "package body pk{k} is");
        let _ = writeln!(s, "  function f{k} (x : integer) return integer is");
        let _ = writeln!(s, "  begin");
        let _ = writeln!(s, "    return (x * {} + {}) mod {};", p.fa, p.fb, p.fm);
        let _ = writeln!(s, "  end f{k};");
        let _ = writeln!(s, "end pk{k};");
        s
    }

    fn res_file(&self) -> String {
        let body = if self.res_or {
            "acc := acc or drivers(i);"
        } else {
            "acc := acc xor drivers(i);"
        };
        format!(
            "package pkres is
  function rfun (drivers : bit_vector) return bit;
  subtype rbit is rfun bit;
  function rec (n : integer) return integer;
end pkres;
package body pkres is
  function rfun (drivers : bit_vector) return bit is
    variable acc : bit := '0';
  begin
    for i in 0 to drivers'length - 1 loop
      {body}
    end loop;
    return acc;
  end rfun;
  function rec (n : integer) return integer is
  begin
    if n < 2 then
      return n;
    end if;
    return rec(n - 1) + rec(n - 2);
  end rec;
end pkres;
"
        )
    }

    fn cell_file(&self, i: usize) -> String {
        let c = &self.cells[i];
        let k = c.pkg;
        let j = c.konst;
        let mut s = String::new();
        let uses = match c.kind {
            Kind::Compute { .. } => format!("use work.pk{k}.all;\nuse work.pkres.all;\n"),
            _ => format!("use work.pk{k}.all;\n"),
        };
        s.push_str(&uses);
        let _ = writeln!(s, "entity cell{i} is");
        let _ = writeln!(s, "  port (clk : in bit; q : out integer);");
        let _ = writeln!(s, "end cell{i};");
        s.push_str(&uses);
        let _ = writeln!(s, "architecture rtl of cell{i} is");
        let _ = writeln!(s, "begin");
        let _ = writeln!(s, "  p : process");
        match c.kind {
            Kind::Counter { m } => {
                let _ = writeln!(s, "    variable cnt : integer := {};", c.init);
                s.push_str("  begin\n    wait on clk;\n    if clk = '1' then\n");
                let _ = writeln!(s, "      cnt := (cnt + c{k}_{j}) mod {m};");
                let _ = writeln!(s, "      q <= f{k}(cnt);");
            }
            Kind::Lfsr => {
                let _ = writeln!(s, "    variable r : integer := {};", c.init);
                s.push_str("    variable fb : integer := 0;\n");
                s.push_str("  begin\n    wait on clk;\n    if clk = '1' then\n");
                s.push_str(
                    "      fb := ((r / 32768) mod 2 + (r / 8192) mod 2 + (r / 4096) mod 2 + (r / 1024) mod 2) mod 2;\n",
                );
                s.push_str("      r := (r * 2 + fb) mod 65536;\n");
                let _ = writeln!(s, "      q <= (r + c{k}_{j}) mod 65536;");
            }
            Kind::Compute { l, base } => {
                let _ = writeln!(s, "    variable acc : integer := {};", c.init);
                s.push_str("    variable cnt : integer := 0;\n");
                s.push_str("  begin\n    wait on clk;\n    if clk = '1' then\n");
                let _ = writeln!(s, "      for i in 0 to {l} loop");
                let _ = writeln!(s, "        acc := (acc * 3 + i + c{k}_{j}) mod 10007;");
                s.push_str("      end loop;\n");
                let _ = writeln!(s, "      acc := (acc + rec(cnt mod 4 + {base})) mod 10007;");
                s.push_str("      cnt := cnt + 1;\n");
                s.push_str("      q <= acc;\n");
            }
        }
        s.push_str("    end if;\n  end process;\nend rtl;\n");
        s
    }

    fn tb_file(&self) -> String {
        let n = self.cells.len();
        let mut s = String::new();
        s.push_str("use work.pkres.all;\nentity tb is end;\nuse work.pkres.all;\n");
        s.push_str("architecture bench of tb is\n");
        for i in 0..n {
            let _ = writeln!(
                s,
                "  component cell{i} port (clk : in bit; q : out integer); end component;"
            );
        }
        s.push_str("  signal clk : bit := '0';\n");
        s.push_str("  signal wbus : rbit := '0';\n");
        for i in 0..n {
            let _ = writeln!(s, "  signal q{i} : integer := 0;");
        }
        for t in 0..=self.shift_len {
            let _ = writeln!(s, "  signal t{t} : integer := 0;");
        }
        s.push_str("begin\n");
        s.push_str(
            "  clkgen : process\n  begin\n    clk <= '1';\n    wait for 5 ns;\n    clk <= '0';\n    wait for 5 ns;\n  end process;\n",
        );
        for i in 0..n {
            let _ = writeln!(s, "  u{i} : cell{i} port map (clk => clk, q => q{i});");
        }
        for (d, l) in self.bus.iter().enumerate() {
            let _ = writeln!(s, "  bd{d} : process");
            let _ = writeln!(s, "    variable r : integer := {};", l.seed);
            s.push_str("  begin\n    wait on clk;\n    if clk = '1' then\n");
            let _ = writeln!(s, "      r := (r * {} + {}) mod {};", l.a, l.c, l.m);
            s.push_str("      if r mod 2 = 1 then\n        wbus <= '1';\n      else\n        wbus <= '0';\n      end if;\n");
            s.push_str("    end if;\n  end process;\n");
        }
        let l = self.shift_in;
        s.push_str("  sin : process\n");
        let _ = writeln!(s, "    variable r : integer := {};", l.seed);
        s.push_str("  begin\n    wait on clk;\n    if clk = '1' then\n");
        let _ = writeln!(s, "      r := (r * {} + {}) mod {};", l.a, l.c, l.m);
        s.push_str("      t0 <= r mod 2;\n    end if;\n  end process;\n");
        for t in 1..=self.shift_len {
            let _ = writeln!(
                s,
                "  sr{t} : process\n  begin\n    wait on clk;\n    if clk = '1' then\n      t{t} <= t{};\n    end if;\n  end process;",
                t - 1
            );
        }
        s.push_str("end bench;\n");
        s.push_str("configuration cfg_tb of tb is\n  for bench\n");
        for i in 0..n {
            let _ = writeln!(
                s,
                "    for u{i} : cell{i} use entity work.cell{i}(rtl); end for;"
            );
        }
        s.push_str("  end for;\nend cfg_tb;\n");
        s
    }

    /// Draws an edit of the kind `which` (0 = leaf architecture, 1 =
    /// package constant, 2 = save with no change) and applies it.
    pub fn edit(&mut self, rng: &mut Rng, which: u64) -> Edit {
        match which {
            0 => {
                let cell = rng.u64_in(0, self.cells.len() as u64 - 1) as usize;
                let c = &mut self.cells[cell];
                let old = c.init;
                c.init = match c.kind {
                    Kind::Lfsr => 1 + (old + rng.u64_in(1, 60000) as i64) % 65535,
                    _ => (old + rng.u64_in(1, 200) as i64) % 201,
                };
                Edit::Arch { cell }
            }
            1 => {
                let pkg = rng.u64_in(0, self.pkgs.len() as u64 - 1) as usize;
                let konst = rng.u64_in(0, 3) as usize;
                let c = &mut self.pkgs[pkg].consts[konst];
                *c = 1 + (*c + rng.u64_in(1, 95) as i64) % 97;
                Edit::Const { pkg, konst }
            }
            _ => Edit::None,
        }
    }

    /// Expected values after `n >= 1` rising edges, `(tb signal, value)`:
    /// every cell output, the resolved bus, and every shift stage.
    pub fn expect(&self, n: u64) -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            out.push((format!("q{i}"), self.cell_q(c, n)));
        }
        let mut bus = 0;
        for l in &self.bus {
            let mut r = l.seed;
            for _ in 0..n {
                r = l.step(r);
            }
            let bit = r & 1;
            bus = if self.res_or { bus | bit } else { bus ^ bit };
        }
        out.push(("wbus".to_string(), bus));
        // Stage t holds the input bit drawn at edge n - t (0 before that).
        let mut bits = Vec::with_capacity(n as usize);
        let mut r = self.shift_in.seed;
        for _ in 0..n {
            r = self.shift_in.step(r);
            bits.push(r & 1);
        }
        for t in 0..=self.shift_len as u64 {
            let v = if n > t { bits[(n - 1 - t) as usize] } else { 0 };
            out.push((format!("t{t}"), v));
        }
        out
    }

    fn cell_q(&self, c: &Cell, n: u64) -> i64 {
        let p = &self.pkgs[c.pkg];
        let step = p.consts[c.konst];
        match c.kind {
            Kind::Counter { m } => {
                let mut cnt = c.init;
                for _ in 0..n {
                    cnt = (cnt + step) % m;
                }
                p.f(cnt)
            }
            Kind::Lfsr => {
                let mut r = c.init as u32;
                for _ in 0..n {
                    let fb = ((r >> 15) ^ (r >> 13) ^ (r >> 12) ^ (r >> 10)) & 1;
                    r = ((r << 1) | fb) & 0xFFFF;
                }
                (i64::from(r) + step) % 65536
            }
            Kind::Compute { l, base } => {
                let mut acc = c.init;
                for cnt in 0..n as i64 {
                    for i in 0..=l {
                        acc = (acc * 3 + i + step) % 10007;
                    }
                    acc = (acc + fib(cnt % 4 + base)) % 10007;
                }
                acc
            }
        }
    }
}

fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// One edit round's change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Edit {
    Arch { cell: usize },
    Const { pkg: usize, konst: usize },
    None,
}

/// Extracts the last value each variable takes in a VCD text, by name.
pub fn vcd_last_values(vcd: &str) -> Vec<(String, i64)> {
    let mut names: Vec<(String, String)> = Vec::new();
    let mut last: std::collections::HashMap<String, i64> = Default::default();
    for line in vcd.lines() {
        if let Some(rest) = line.strip_prefix("$var wire 1 ") {
            let mut it = rest.split_whitespace();
            if let (Some(code), Some(name)) = (it.next(), it.next()) {
                names.push((code.to_string(), name.to_string()));
            }
        } else if let Some(rest) = line.strip_prefix('b') {
            if let Some((bits, code)) = rest.split_once(' ') {
                if let Ok(v) = i64::from_str_radix(bits, 2) {
                    last.insert(code.to_string(), v);
                }
            }
        } else if let Some(code) = line.strip_prefix('0') {
            last.insert(code.to_string(), 0);
        } else if let Some(code) = line.strip_prefix('1') {
            last.insert(code.to_string(), 1);
        }
    }
    names
        .into_iter()
        .filter_map(|(code, name)| last.get(&code).map(|v| (name, *v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for shape in [SMALL, SERVE, RTL] {
            let a = Project::generate(7, shape);
            let b = Project::generate(7, shape);
            assert_eq!(a.files(), b.files());
            assert_eq!(a.expect(13), b.expect(13));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a = Project::generate(1, SMALL);
        let b = Project::generate(2, SMALL);
        assert_ne!(a.files(), b.files());
    }

    #[test]
    fn lfsr_model_matches_the_arithmetic_form() {
        // The VHDL extracts bits with division and `mod`; the model uses
        // shifts. Cross-check the two forms here.
        let mut r: i64 = 0xACE1;
        let mut m: u32 = 0xACE1;
        for _ in 0..1000 {
            let fb = ((r / 32768) % 2 + (r / 8192) % 2 + (r / 4096) % 2 + (r / 1024) % 2) % 2;
            r = (r * 2 + fb) % 65536;
            let mb = ((m >> 15) ^ (m >> 13) ^ (m >> 12) ^ (m >> 10)) & 1;
            m = ((m << 1) | mb) & 0xFFFF;
            assert_eq!(r, i64::from(m));
        }
    }

    #[test]
    fn vcd_last_values_reads_scalars_and_vectors() {
        let v = "$var wire 1 ! tb.a $end\n$var wire 1 \" tb.b $end\n$enddefinitions $end\n#0\n1!\nb101 \"\n#5\n0!\n";
        assert_eq!(
            vcd_last_values(v),
            vec![("tb.a".to_string(), 0), ("tb.b".to_string(), 5)]
        );
    }
}
