//! Assembled program image.

use crate::Instr;

/// An assembled, position-fixed program image: a base address plus a
/// contiguous sequence of 32-bit words (instructions and inline data).
///
/// Programs are what the SoC loader writes into Flash and what the
/// self-test wrappers measure for the *memory footprint* comparisons
/// (paper Table IV).
///
/// # Example
///
/// ```
/// use sbst_isa::{Asm, Program, Reg};
/// # fn main() -> Result<(), sbst_isa::AsmError> {
/// let mut a = Asm::new();
/// a.addi(Reg::R1, Reg::R0, 7);
/// a.halt();
/// let p: Program = a.assemble(0x200)?;
/// assert_eq!(p.len_bytes(), 8);
/// assert!(p.contains(0x204));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    base: u32,
    words: Vec<u32>,
}

impl Program {
    /// Creates a program from raw words at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned.
    pub fn new(base: u32, words: Vec<u32>) -> Program {
        assert_eq!(base % 4, 0, "program base {base:#x} must be word aligned");
        Program { base, words }
    }

    /// Base (load) address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Address of the first byte past the image.
    pub fn end(&self) -> u32 {
        self.base + self.len_bytes() as u32
    }

    /// Raw image words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Size of the image in bytes.
    pub fn len_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `addr` falls inside the image.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Word at byte address `addr`, if inside the image and aligned.
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        if !self.contains(addr) || !addr.is_multiple_of(4) {
            return None;
        }
        Some(self.words[((addr - self.base) / 4) as usize])
    }

    /// Pretty disassembly listing of the whole image.
    ///
    /// Data words that do not decode are shown as `.word`.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, &w) in self.words.iter().enumerate() {
            let addr = self.base + (i as u32) * 4;
            match Instr::decode(w) {
                Ok(instr) => {
                    let _ = writeln!(out, "{addr:#010x}:  {w:08x}  {instr}");
                }
                Err(_) => {
                    let _ = writeln!(out, "{addr:#010x}:  {w:08x}  .word {w:#x}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    fn sample() -> Program {
        let mut a = Asm::new();
        a.addi(Reg::R1, Reg::R0, 1);
        a.word(0xffff_ffff);
        a.halt();
        a.assemble(0x400).unwrap()
    }

    #[test]
    fn addressing() {
        let p = sample();
        assert_eq!(p.base(), 0x400);
        assert_eq!(p.end(), 0x40c);
        assert_eq!(p.len_bytes(), 12);
        assert!(p.contains(0x400));
        assert!(p.contains(0x40b));
        assert!(!p.contains(0x40c));
        assert_eq!(p.word_at(0x404), Some(0xffff_ffff));
        assert_eq!(p.word_at(0x402), None, "unaligned");
        assert_eq!(p.word_at(0x3fc), None, "below base");
    }

    #[test]
    fn disassembly_marks_data() {
        let p = sample();
        let d = p.disassemble();
        assert!(d.contains("addi"), "{d}");
        assert!(d.contains(".word"), "{d}");
        assert!(d.contains("halt"), "{d}");
    }

    #[test]
    #[should_panic]
    fn misaligned_base_panics() {
        let _ = Program::new(3, vec![]);
    }
}
