//! A small two-pass assembler with labels.

use std::collections::HashMap;

use crate::{AluOp, CacheOp, Cond, Csr, Instr, Program, Reg};

/// Errors produced by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A branch or jump referenced an undefined label.
    UnknownLabel(String),
    /// A resolved branch offset does not fit its 16-bit field.
    BranchOutOfRange {
        /// The target label.
        label: String,
        /// The resolved byte offset.
        offset: i64,
    },
    /// A resolved jump offset does not fit its 21-bit field.
    JumpOutOfRange {
        /// The target label.
        label: String,
        /// The resolved byte offset.
        offset: i64,
    },
    /// The requested base address is not 4-byte aligned.
    MisalignedBase(u32),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AsmError::UnknownLabel(l) => write!(f, "label `{l}` is not defined"),
            AsmError::BranchOutOfRange { label, offset } => {
                write!(f, "branch to `{label}` out of range (offset {offset})")
            }
            AsmError::JumpOutOfRange { label, offset } => {
                write!(f, "jump to `{label}` out of range (offset {offset})")
            }
            AsmError::MisalignedBase(b) => write!(f, "base address {b:#x} is not word aligned"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Instr(Instr),
    BranchTo { cond: Cond, rs1: Reg, rs2: Reg, label: String },
    JalTo { rd: Reg, label: String },
    /// Pad with `nop`s until the current address is a multiple of `n` bytes.
    Align(u32),
    /// Raw data word (constants pools, scratch slots).
    Word(u32),
}

/// A two-pass assembler: emit instructions and labels, then
/// [`assemble`](Asm::assemble) into a [`Program`] at a base address.
///
/// Branch/jump offsets are pc-relative so the *same* `Asm` can be
/// assembled at several base addresses — exactly what the scenario sweeps
/// (code position low/mid/high in Flash) require.
///
/// # Example
///
/// ```
/// use sbst_isa::{Asm, Reg};
/// # fn main() -> Result<(), sbst_isa::AsmError> {
/// let mut a = Asm::new();
/// a.li(Reg::R1, 3);
/// a.label("spin");
/// a.subi(Reg::R1, Reg::R1, 1);
/// a.bne(Reg::R1, Reg::R0, "spin");
/// a.halt();
/// let low = a.assemble(0x100)?;
/// let high = a.assemble(0x0007_0000)?;
/// assert_eq!(low.words(), high.words()); // fully position independent
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Asm {
    items: Vec<Item>,
    labels: HashMap<String, usize>, // label -> item index
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Number of emitted items (instructions + data words; labels and
    /// alignment directives excluded).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| !matches!(i, Item::Align(_)))
            .count()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends a raw instruction.
    pub fn emit(&mut self, instr: Instr) {
        self.items.push(Item::Instr(instr));
    }

    /// Appends another assembler fragment *including its labels*
    /// (shifted to this assembler's current position). Colliding label
    /// names are reported by [`assemble`](Asm::assemble) as duplicates.
    pub fn append(&mut self, other: &Asm) {
        let offset = self.items.len();
        for (name, &idx) in &other.labels {
            let shifted = if idx == usize::MAX { usize::MAX } else { idx + offset };
            if self.labels.contains_key(name) {
                self.labels.insert(name.clone(), usize::MAX);
            } else {
                self.labels.insert(name.clone(), shifted);
            }
        }
        self.items.extend(other.items.iter().cloned());
    }

    /// Defines a label at the current position.
    ///
    /// Duplicate definitions are reported by [`assemble`](Asm::assemble).
    pub fn label(&mut self, name: &str) {
        // Allow overwrite detection at assemble time: record first one wins,
        // remember duplicates with a sentinel item-less map entry.
        if self.labels.contains_key(name) {
            // Mark duplicate by pointing at usize::MAX; assemble reports it.
            self.labels.insert(name.to_string(), usize::MAX);
        } else {
            self.labels.insert(name.to_string(), self.items.len());
        }
    }

    /// Emits a raw data word at the current position.
    pub fn word(&mut self, value: u32) {
        self.items.push(Item::Word(value));
    }

    /// Pads with `nop` until the current address is `n`-byte aligned.
    ///
    /// `n` must be a power of two multiple of 4. Used by the scenario
    /// sweeps to control issue-packet alignment.
    pub fn align(&mut self, n: u32) {
        assert!(n.is_power_of_two() && n >= 4, "bad alignment {n}");
        self.items.push(Item::Align(n));
    }

    // ---- ALU ----------------------------------------------------------

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Add, rd, rs1, rs2 });
    }

    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Sub, rd, rs1, rs2 });
    }

    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::And, rd, rs1, rs2 });
    }

    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Or, rd, rs1, rs2 });
    }

    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Xor, rd, rs1, rs2 });
    }

    /// `sll rd, rs1, rs2`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Sll, rd, rs1, rs2 });
    }

    /// `srl rd, rs1, rs2`
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Srl, rd, rs1, rs2 });
    }

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Mul, rd, rs1, rs2 });
    }

    /// `sra rd, rs1, rs2`
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Sra, rd, rs1, rs2 });
    }

    /// `slt rd, rs1, rs2`
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::Slt, rd, rs1, rs2 });
    }

    /// Generic register-register ALU op.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op, rd, rs1, rs2 });
    }

    /// Generic 64-bit register-pair ALU op (core C only).
    pub fn alu64(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu64 { op, rd, rs1, rs2 });
    }

    /// `addv rd, rs1, rs2` — overflow-trapping add (imprecise exception).
    pub fn addv(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::AddV, rd, rs1, rs2 });
    }

    /// `mulv rd, rs1, rs2` — overflow-trapping multiply.
    pub fn mulv(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op: AluOp::MulV, rd, rs1, rs2 });
    }

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::Add, rd, rs1, imm });
    }

    /// `subi rd, rs1, imm` (pseudo: `addi rd, rs1, -imm`).
    pub fn subi(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.addi(rd, rs1, -imm);
    }

    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::And, rd, rs1, imm });
    }

    /// `ori rd, rs1, imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::Or, rd, rs1, imm });
    }

    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::Xor, rd, rs1, imm });
    }

    /// `slli rd, rs1, imm`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::Sll, rd, rs1, imm });
    }

    /// `srli rd, rs1, imm`
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i16) {
        self.emit(Instr::AluImm { op: AluOp::Srl, rd, rs1, imm });
    }

    /// `lui rd, imm`
    pub fn lui(&mut self, rd: Reg, imm: u16) {
        self.emit(Instr::Lui { rd, imm });
    }

    /// Loads an arbitrary 32-bit constant (`lui`+`ori` or single `addi`).
    ///
    /// Always emits a *fixed* number of instructions for a given constant,
    /// keeping code layout deterministic.
    pub fn li(&mut self, rd: Reg, value: u32) {
        let v = value as i32;
        if (-32768..32768).contains(&v) {
            self.addi(rd, Reg::R0, v as i16);
        } else {
            self.lui(rd, (value >> 16) as u16);
            self.ori(rd, rd, (value & 0xffff) as i16);
        }
    }

    /// Loads a 32-bit constant with a *fixed* two-instruction expansion
    /// (`lui`+`ori`), regardless of the value. Used where downstream code
    /// depends on a constant code size (e.g. embedded-image address
    /// computation in the TCM wrapper).
    pub fn li32(&mut self, rd: Reg, value: u32) {
        self.lui(rd, (value >> 16) as u16);
        self.ori(rd, rd, (value & 0xffff) as i16);
    }

    /// `mv rd, rs` (pseudo: `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// `nop`
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    /// Emits `n` consecutive `nop`s.
    pub fn nops(&mut self, n: usize) {
        for _ in 0..n {
            self.nop();
        }
    }

    // ---- memory -------------------------------------------------------

    /// `lw rd, off(base)`
    pub fn lw(&mut self, rd: Reg, base: Reg, off: i16) {
        self.emit(Instr::Load { rd, base, off });
    }

    /// `sw src, off(base)`
    pub fn sw(&mut self, src: Reg, base: Reg, off: i16) {
        self.emit(Instr::Store { src, base, off });
    }

    /// `amoswap rd, src, (base)`
    pub fn amoswap(&mut self, rd: Reg, src: Reg, base: Reg) {
        self.emit(Instr::Amoswap { rd, base, src });
    }

    // ---- control flow -------------------------------------------------

    /// `beq rs1, rs2, label`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) {
        self.branch(Cond::Eq, rs1, rs2, label);
    }

    /// `bne rs1, rs2, label`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) {
        self.branch(Cond::Ne, rs1, rs2, label);
    }

    /// `blt rs1, rs2, label`
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: &str) {
        self.branch(Cond::Lt, rs1, rs2, label);
    }

    /// `bge rs1, rs2, label`
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: &str) {
        self.branch(Cond::Ge, rs1, rs2, label);
    }

    /// Generic conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, rs1: Reg, rs2: Reg, label: &str) {
        self.items.push(Item::BranchTo { cond, rs1, rs2, label: label.to_string() });
    }

    /// `j label` (pseudo: `jal r0, label`).
    pub fn j(&mut self, label: &str) {
        self.items.push(Item::JalTo { rd: Reg::R0, label: label.to_string() });
    }

    /// `jal rd, label`
    pub fn jal(&mut self, rd: Reg, label: &str) {
        self.items.push(Item::JalTo { rd, label: label.to_string() });
    }

    /// `jalr rd, off(base)`
    pub fn jalr(&mut self, rd: Reg, base: Reg, off: i16) {
        self.emit(Instr::Jalr { rd, base, off });
    }

    /// `ret` (pseudo: `jalr r0, 0(r31)`; `r31` is the link register by
    /// convention).
    pub fn ret(&mut self) {
        self.jalr(Reg::R0, Reg::R31, 0);
    }

    /// `call label` (pseudo: `jal r31, label`).
    pub fn call(&mut self, label: &str) {
        self.jal(Reg::R31, label);
    }

    // ---- system -------------------------------------------------------

    /// `csrr rd, csr`
    pub fn csrr(&mut self, rd: Reg, csr: Csr) {
        self.emit(Instr::CsrRead { rd, csr });
    }

    /// `csrw csr, src`
    pub fn csrw(&mut self, csr: Csr, src: Reg) {
        self.emit(Instr::CsrWrite { csr, src });
    }

    /// `icinv` — invalidate the instruction cache.
    pub fn icinv(&mut self) {
        self.emit(Instr::Cache(CacheOp::IcInv));
    }

    /// `dcinv` — invalidate the data cache.
    pub fn dcinv(&mut self) {
        self.emit(Instr::Cache(CacheOp::DcInv));
    }

    /// `mret`
    pub fn mret(&mut self) {
        self.emit(Instr::Mret);
    }

    /// `halt`
    pub fn halt(&mut self) {
        self.emit(Instr::Halt);
    }

    // ---- assembly -----------------------------------------------------

    /// Resolves labels and produces a [`Program`] based at `base`.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for duplicate/unknown labels, out-of-range
    /// branch offsets or a misaligned base address.
    pub fn assemble(&self, base: u32) -> Result<Program, AsmError> {
        if !base.is_multiple_of(4) {
            return Err(AsmError::MisalignedBase(base));
        }
        for (name, &idx) in &self.labels {
            if idx == usize::MAX {
                return Err(AsmError::DuplicateLabel(name.clone()));
            }
        }

        // Pass 1: layout — byte offset of each item, plus label offsets.
        let mut offsets = Vec::with_capacity(self.items.len());
        let mut cursor = base;
        for item in &self.items {
            if let Item::Align(n) = item {
                while !cursor.is_multiple_of(*n) {
                    cursor += 4;
                }
            }
            offsets.push(cursor);
            match item {
                Item::Align(_) => {}
                _ => cursor += 4,
            }
        }
        let end = cursor;

        let label_addr = |label: &str| -> Result<u32, AsmError> {
            let &idx = self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UnknownLabel(label.to_string()))?;
            Ok(if idx == self.items.len() { end } else { offsets[idx] })
        };

        // Pass 2: emit words.
        let mut words = Vec::new();
        let mut cursor = base;
        for (item, &addr) in self.items.iter().zip(&offsets) {
            match item {
                Item::Align(_) => {
                    while cursor < addr {
                        words.push(Instr::Nop.encode());
                        cursor += 4;
                    }
                    continue;
                }
                Item::Instr(i) => words.push(i.encode()),
                Item::Word(w) => words.push(*w),
                Item::BranchTo { cond, rs1, rs2, label } => {
                    let target = label_addr(label)?;
                    let off = target as i64 - addr as i64;
                    let off16 = i16::try_from(off).map_err(|_| AsmError::BranchOutOfRange {
                        label: label.clone(),
                        offset: off,
                    })?;
                    words.push(
                        Instr::Branch { cond: *cond, rs1: *rs1, rs2: *rs2, off: off16 }.encode(),
                    );
                }
                Item::JalTo { rd, label } => {
                    let target = label_addr(label)?;
                    let off = target as i64 - addr as i64;
                    if !(-(1 << 20)..(1 << 20)).contains(&off) {
                        return Err(AsmError::JumpOutOfRange {
                            label: label.clone(),
                            offset: off,
                        });
                    }
                    words.push(Instr::Jal { rd: *rd, off: off as i32 }.encode());
                }
            }
            cursor += 4;
        }

        Ok(Program::new(base, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new();
        a.label("top");
        a.addi(Reg::R1, Reg::R1, 1);
        a.beq(Reg::R1, Reg::R2, "end");
        a.j("top");
        a.label("end");
        a.halt();
        let p = a.assemble(0x1000).unwrap();
        assert_eq!(p.words().len(), 4);
        // beq at 0x1004 targets 0x100c => off = 8
        let beq = Instr::decode(p.words()[1]).unwrap();
        assert_eq!(
            beq,
            Instr::Branch { cond: Cond::Eq, rs1: Reg::R1, rs2: Reg::R2, off: 8 }
        );
        // j at 0x1008 targets 0x1000 => off = -8
        let j = Instr::decode(p.words()[2]).unwrap();
        assert_eq!(j, Instr::Jal { rd: Reg::R0, off: -8 });
    }

    #[test]
    fn label_at_end_of_program_resolves() {
        let mut a = Asm::new();
        a.beq(Reg::R0, Reg::R0, "end");
        a.label("end");
        let p = a.assemble(0).unwrap();
        let b = Instr::decode(p.words()[0]).unwrap();
        assert_eq!(b, Instr::Branch { cond: Cond::Eq, rs1: Reg::R0, rs2: Reg::R0, off: 4 });
    }

    #[test]
    fn unknown_label_is_reported() {
        let mut a = Asm::new();
        a.j("nowhere");
        assert_eq!(
            a.assemble(0),
            Err(AsmError::UnknownLabel("nowhere".to_string()))
        );
    }

    #[test]
    fn duplicate_label_is_reported() {
        let mut a = Asm::new();
        a.label("x");
        a.nop();
        a.label("x");
        assert_eq!(a.assemble(0), Err(AsmError::DuplicateLabel("x".to_string())));
    }

    #[test]
    fn misaligned_base_is_reported() {
        let a = Asm::new();
        assert_eq!(a.assemble(2), Err(AsmError::MisalignedBase(2)));
    }

    #[test]
    fn align_pads_with_nops() {
        let mut a = Asm::new();
        a.nop();
        a.align(16);
        a.label("aligned");
        a.halt();
        let p = a.assemble(0x100).unwrap();
        // nop at 0x100, pad 0x104..0x110, halt at 0x110
        assert_eq!(p.words().len(), 5);
        assert_eq!(Instr::decode(p.words()[4]).unwrap(), Instr::Halt);
    }

    #[test]
    fn sra_and_slt_helpers() {
        let mut a = Asm::new();
        a.sra(Reg::R1, Reg::R2, Reg::R3);
        a.slt(Reg::R4, Reg::R5, Reg::R6);
        let p = a.assemble(0).unwrap();
        assert_eq!(
            Instr::decode(p.words()[0]).unwrap(),
            Instr::Alu { op: AluOp::Sra, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }
        );
        assert_eq!(
            Instr::decode(p.words()[1]).unwrap(),
            Instr::Alu { op: AluOp::Slt, rd: Reg::R4, rs1: Reg::R5, rs2: Reg::R6 }
        );
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new();
        a.li(Reg::R1, 5);
        a.li(Reg::R2, 0xdead_beef);
        let p = a.assemble(0).unwrap();
        assert_eq!(p.words().len(), 3);
        assert_eq!(
            Instr::decode(p.words()[1]).unwrap(),
            Instr::Lui { rd: Reg::R2, imm: 0xdead }
        );
    }

    #[test]
    fn position_independent_codegen() {
        let mut a = Asm::new();
        a.label("top");
        a.addi(Reg::R1, Reg::R1, 1);
        a.bne(Reg::R1, Reg::R2, "top");
        a.halt();
        assert_eq!(a.assemble(0).unwrap().words(), a.assemble(0x7_0000).unwrap().words());
    }

    #[test]
    fn append_imports_labels_shifted() {
        let mut frag = Asm::new();
        frag.label("frag_top");
        frag.addi(Reg::R1, Reg::R1, 1);
        frag.bne(Reg::R1, Reg::R2, "frag_top");
        let mut main = Asm::new();
        main.nop();
        main.nop();
        main.append(&frag);
        main.halt();
        let p = main.assemble(0x100).unwrap();
        // The backward branch targets the shifted label (0x108).
        let b = Instr::decode(p.words()[3]).unwrap();
        assert_eq!(
            b,
            Instr::Branch { cond: Cond::Ne, rs1: Reg::R1, rs2: Reg::R2, off: -4 }
        );
    }

    #[test]
    fn append_detects_label_collisions() {
        let mut frag = Asm::new();
        frag.label("x");
        frag.nop();
        let mut main = Asm::new();
        main.label("x");
        main.nop();
        main.append(&frag);
        assert_eq!(main.assemble(0), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn branch_out_of_range_is_reported() {
        let mut a = Asm::new();
        a.label("far");
        for _ in 0..10_000 {
            a.nop();
        }
        a.beq(Reg::R0, Reg::R0, "far");
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }
}
