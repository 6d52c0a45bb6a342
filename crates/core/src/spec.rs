//! The LA-1 implementation agreement: configuration, pins, transactions
//! and parity.
//!
//! The Network Processing Forum's Look-Aside (LA-1) interface connects a
//! network-processing element to look-aside coprocessors and QDR-style
//! SRAMs. The features reproduced here follow the paper's summary:
//!
//! * concurrent read and write operation,
//! * unidirectional read and write interfaces,
//! * a single address bus,
//! * an 18-pin DDR data **output** path (16 data + 2 even byte-parity
//!   bits per edge; a full 32-bit word per clock period),
//! * an 18-pin DDR data **input** path with the same format,
//! * byte write control for writes,
//! * a master clock pair `K` / `K#`, ideally 180° out of phase,
//! * 1 to N banks (the paper evaluates 1–4 and simulates up to 8).

/// Width of one DDR data half (bits transferred per clock edge).
pub const HALF_WIDTH: u32 = 16;
/// Parity bits accompanying each half (one per byte: even byte parity).
pub const PARITY_BITS: u32 = 2;
/// Data pins per direction: the "18-pin DDR data path".
pub const DATA_PINS: u32 = HALF_WIDTH + PARITY_BITS;
/// Bits in a full transferred word (two edges).
pub const WORD_WIDTH: u32 = 2 * HALF_WIDTH;
/// Byte-write-control bits per word (one per byte).
pub const BYTE_ENABLES: u32 = WORD_WIDTH / 8;
/// Read latency in full clock cycles: request at the rising edge of
/// cycle `n`, data out on both edges of cycle `n + READ_LATENCY`
/// (Fig. 3 of the paper).
pub const READ_LATENCY: u32 = 2;

/// Static configuration of an LA-1 device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaConfig {
    /// Number of banks (the paper scales 1..=4, simulation up to 8).
    pub banks: u32,
    /// Words of SRAM per bank.
    pub words_per_bank: u32,
    /// Word width in bits (32 for the full-size interface; the
    /// model-checking configuration shrinks it).
    pub word_width: u32,
    /// Address values the ASM explorer draws from (AsmL's finite
    /// domains).
    pub mc_addr_domain: Vec<u64>,
    /// Data values the ASM explorer draws from.
    pub mc_data_domain: Vec<u64>,
    /// Read burst length: 1 for LA-1, 2 for the LA-1B-style burst
    /// extension (one address fetches two consecutive words on
    /// consecutive cycles). See [`LaConfig::la1b`].
    pub burst_len: u32,
}

impl LaConfig {
    /// Full-size configuration with the given bank count: 64 words per
    /// bank, 32-bit words, and small exploration domains.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: u32) -> Self {
        assert!(banks >= 1, "an LA-1 device has at least one bank");
        LaConfig {
            banks,
            words_per_bank: 64,
            word_width: WORD_WIDTH,
            mc_addr_domain: vec![0, 1],
            mc_data_domain: vec![0, 0xFFFF_FFFF],
            burst_len: 1,
        }
    }

    /// An LA-1B-style configuration: burst-of-2 reads (the direction the
    /// paper's reference [Bhugra, CommsDesign 2003] pushes the
    /// interface). One read request returns the addressed word and its
    /// successor on consecutive cycles; the host must leave one idle
    /// cycle between reads.
    pub fn la1b(banks: u32) -> Self {
        LaConfig {
            burst_len: 2,
            ..LaConfig::new(banks)
        }
    }

    /// A deliberately small configuration for symbolic model checking
    /// (Table 2): 2 words per bank, 2-bit words — small enough that the
    /// 1-bank instance is quick, large enough that the RuleBase-era
    /// monolithic strategy still explodes as banks scale. (RuleBase
    /// users shrank datapaths for model checking the same way.)
    pub fn mc_small(banks: u32) -> Self {
        LaConfig {
            words_per_bank: 2,
            word_width: 2,
            ..LaConfig::new(banks)
        }
    }

    /// True when this configuration uses LA-1B-style burst reads.
    pub fn is_burst(&self) -> bool {
        self.burst_len >= 2
    }

    /// Bits needed for a word address within one bank.
    pub fn addr_bits(&self) -> u32 {
        self.words_per_bank
            .next_power_of_two()
            .trailing_zeros()
            .max(1)
    }

    /// Bits per DDR half-word.
    pub fn half_width(&self) -> u32 {
        self.word_width / 2
    }

    /// Parity bits per half (one per byte, minimum one).
    pub fn parity_bits(&self) -> u32 {
        (self.half_width() / 8).max(1)
    }

    /// Byte-enable bits per word (minimum two: one per half).
    pub fn byte_enables(&self) -> u32 {
        (self.word_width / 8).max(2)
    }

    /// Masks a value to the configured word width.
    pub fn mask_word(&self, value: u64) -> u64 {
        if self.word_width >= 64 {
            value
        } else {
            value & ((1u64 << self.word_width) - 1)
        }
    }

    /// The low DDR half of a word (transferred on the rising edge).
    pub fn low_half(&self, word: u64) -> u64 {
        word & ((1u64 << self.half_width()) - 1)
    }

    /// The high DDR half of a word (transferred on the falling edge).
    pub fn high_half(&self, word: u64) -> u64 {
        (word >> self.half_width()) & ((1u64 << self.half_width()) - 1)
    }

    /// Expands a byte-enable mask into a per-bit write mask.
    pub fn bit_mask_of(&self, byte_en: u32) -> u64 {
        let mut mask = 0u64;
        for byte in 0..self.byte_enables() {
            if byte_en >> byte & 1 == 1 {
                let bits_per_byte = self.word_width / self.byte_enables();
                mask |= ((1u64 << bits_per_byte) - 1) << (byte * bits_per_byte);
            }
        }
        mask
    }

    /// The pin inventory of this configuration (Fig. 1 of the paper).
    pub fn pins(&self) -> Vec<Pin> {
        let mut pins = vec![
            Pin::new("K", 1, PinDir::HostOut, "master clock"),
            Pin::new(
                "K#",
                1,
                PinDir::HostOut,
                "master clock, 180 degrees out of phase",
            ),
        ];
        pins.push(Pin::new(
            "SA",
            self.addr_bits() + bank_bits(self.banks),
            PinDir::HostOut,
            "single address bus (bank + word)",
        ));
        for b in 0..self.banks {
            pins.push(Pin::new_owned(
                format!("R{b}#"),
                1,
                PinDir::HostOut,
                "read select, active low, sampled at rising K",
            ));
            pins.push(Pin::new_owned(
                format!("W{b}#"),
                1,
                PinDir::HostOut,
                "write select, active low, sampled at rising K",
            ));
        }
        pins.push(Pin::new(
            "D",
            self.half_width() + self.parity_bits(),
            PinDir::HostOut,
            "DDR write-data input path (data + even byte parity)",
        ));
        pins.push(Pin::new(
            "BW#",
            self.byte_enables() / 2,
            PinDir::HostOut,
            "byte write control per DDR edge, active low",
        ));
        pins.push(Pin::new(
            "Q",
            self.half_width() + self.parity_bits(),
            PinDir::SlaveOut,
            "DDR read-data output path (data + even byte parity)",
        ));
        pins.push(Pin::new("QVLD", 1, PinDir::SlaveOut, "read data valid"));
        pins
    }
}

impl Default for LaConfig {
    fn default() -> Self {
        LaConfig::new(1)
    }
}

/// Bits needed to address `banks` banks.
pub fn bank_bits(banks: u32) -> u32 {
    if banks <= 1 {
        0
    } else {
        banks.next_power_of_two().trailing_zeros()
    }
}

/// Direction of a pin, from the host (network processor) point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinDir {
    /// Driven by the host (NPE), input to the LA-1 device.
    HostOut,
    /// Driven by the LA-1 device.
    SlaveOut,
}

/// One pin (or bus) of the interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Pin/bus name.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Direction.
    pub dir: PinDir,
    /// Short description.
    pub purpose: &'static str,
}

impl Pin {
    fn new(name: &str, width: u32, dir: PinDir, purpose: &'static str) -> Pin {
        Pin {
            name: name.to_string(),
            width,
            dir,
            purpose,
        }
    }

    fn new_owned(name: String, width: u32, dir: PinDir, purpose: &'static str) -> Pin {
        Pin {
            name,
            width,
            dir,
            purpose,
        }
    }
}

/// One host-issued operation targeting a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// Read the word at `addr` of `bank`.
    Read {
        /// Target bank.
        bank: u32,
        /// Word address within the bank.
        addr: u64,
    },
    /// Write `data` (masked by `byte_en`) to `addr` of `bank`.
    Write {
        /// Target bank.
        bank: u32,
        /// Word address within the bank.
        addr: u64,
        /// Full data word.
        data: u64,
        /// Byte-enable mask (bit per byte, 1 = write).
        byte_en: u32,
    },
}

impl BankOp {
    /// A read of `addr` on `bank`.
    pub fn read(bank: u32, addr: u64) -> BankOp {
        BankOp::Read { bank, addr }
    }

    /// A full-word write.
    pub fn write(bank: u32, addr: u64, data: u64, byte_en: u32) -> BankOp {
        BankOp::Write {
            bank,
            addr,
            data,
            byte_en,
        }
    }

    /// The targeted bank.
    pub fn bank(&self) -> u32 {
        match *self {
            BankOp::Read { bank, .. } | BankOp::Write { bank, .. } => bank,
        }
    }

    /// True for read operations.
    pub fn is_read(&self) -> bool {
        matches!(self, BankOp::Read { .. })
    }
}

/// Even parity of the low `width` bits of `value` (one bit per byte is
/// transferred on the bus; this helper computes a single byte's bit).
pub fn even_parity(value: u64, width: u32) -> bool {
    let masked = if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    };
    masked.count_ones() % 2 == 1
}

/// Per-byte even-parity bits of a half-word: bit `i` covers byte `i`.
pub fn byte_parity(half: u64, half_width: u32) -> u64 {
    let bytes = (half_width / 8).max(1);
    let bits_per_byte = half_width / bytes;
    let mut p = 0u64;
    for i in 0..bytes {
        let byte = (half >> (i * bits_per_byte)) & ((1u64 << bits_per_byte) - 1);
        if even_parity(byte, bits_per_byte) {
            p |= 1 << i;
        }
    }
    p
}
