//! Protected module images and their placement in memory.
//!
//! A [`ModuleImage`] is the loadable form of a module: code bytes, data
//! bytes, entry-point offsets and export names. Images are usually
//! produced from a `swsec-minc` [`CompiledProgram`] compiled with
//! `no_start`, but can also be hand-built from raw bytes (the
//! machine-code attacker does exactly that).

use swsec_minc::CompiledProgram;
use swsec_vm::policy::ProtectedRegion;

/// A loadable protected-module image.
#[derive(Debug, Clone)]
pub struct ModuleImage {
    code: Vec<u8>,
    data: Vec<u8>,
    /// Offsets into `code` of the designated entry points.
    entry_offsets: Vec<u32>,
    /// Exported function names, parallel to `entry_offsets`.
    exports: Vec<String>,
    /// The base the code was compiled for (images are not relocatable;
    /// the module must be loaded at this address).
    code_base: u32,
    /// The base the data was compiled for.
    data_base: u32,
}

impl ModuleImage {
    /// Builds an image from a compiled MinC module (one compiled with
    /// `CompileOptions::no_start`). Every exported function becomes an
    /// entry point.
    pub fn from_compiled(program: &CompiledProgram) -> ModuleImage {
        let mut entry_offsets = Vec::new();
        let mut exports = Vec::new();
        for name in &program.exports {
            let addr = program.functions[name];
            entry_offsets.push(addr - program.text_base);
            exports.push(name.clone());
        }
        if let Some(reentry) = program.reentry_addr {
            entry_offsets.push(reentry - program.text_base);
            exports.push("__reentry".to_string());
        }
        ModuleImage {
            code: program.text.clone(),
            data: program.data.clone(),
            entry_offsets,
            exports,
            code_base: program.text_base,
            data_base: program.data_base,
        }
    }

    /// Builds an image from raw segments (used by hand-written modules
    /// and by attacker tooling).
    pub fn from_raw(
        code: Vec<u8>,
        data: Vec<u8>,
        code_base: u32,
        data_base: u32,
        entry_offsets: Vec<u32>,
    ) -> ModuleImage {
        let exports = entry_offsets
            .iter()
            .enumerate()
            .map(|(i, _)| format!("entry{i}"))
            .collect();
        ModuleImage {
            code,
            data,
            entry_offsets,
            exports,
            code_base,
            data_base,
        }
    }

    /// The module's code bytes — the input to measurement.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The module's initial data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The code base address the image was compiled for.
    pub fn code_base(&self) -> u32 {
        self.code_base
    }

    /// The data base address the image was compiled for.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// Entry-point offsets into the code segment.
    pub fn entry_offsets(&self) -> &[u32] {
        &self.entry_offsets
    }

    /// Exported names, parallel to [`ModuleImage::entry_offsets`].
    pub fn exports(&self) -> &[String] {
        &self.exports
    }

    /// Absolute address of the export named `name`.
    pub fn export_addr(&self, name: &str) -> Option<u32> {
        self.exports
            .iter()
            .position(|e| e == name)
            .map(|i| self.code_base + self.entry_offsets[i])
    }

    /// Flips one bit of the code image — the OS-level attacker tampering
    /// with a module before loading it (§IV-C). Attestation must detect
    /// this.
    pub fn tamper_code_bit(&mut self, byte: usize, bit: u8) {
        let len = self.code.len().max(1);
        self.code[byte % len] ^= 1 << (bit % 8);
    }

    /// The protected region this image occupies once loaded: code range,
    /// data range and absolute entry points.
    pub fn region(&self) -> ProtectedRegion {
        ProtectedRegion::new(
            self.code_base..self.code_base + self.code.len().max(1) as u32,
            self.data_base..self.data_base + self.data.len().max(1) as u32,
            self.entry_offsets
                .iter()
                .map(|&o| self.code_base + o)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsec_minc::{compile, parse, CompileOptions};

    fn secret_module_image() -> ModuleImage {
        let unit = parse(
            "static int tries_left = 3;\n\
             static int PIN = 1234;\n\
             static int secret = 666;\n\
             int get_secret(int provided_pin) {\n\
                 if (tries_left > 0) {\n\
                     if (PIN == provided_pin) { tries_left = 3; return secret; }\n\
                     else { tries_left--; return 0; }\n\
                 } else return 0;\n\
             }",
        )
        .unwrap();
        let mut opts = CompileOptions {
            no_start: true,
            ..CompileOptions::default()
        };
        opts.layout.0.text_base = 0x0a00_0000;
        opts.layout.0.data_base = 0x0a10_0000;
        ModuleImage::from_compiled(&compile(&unit, &opts).unwrap())
    }

    #[test]
    fn image_from_compiled_module() {
        let image = secret_module_image();
        assert_eq!(image.exports(), &["get_secret".to_string()]);
        assert_eq!(image.entry_offsets().len(), 1);
        assert!(image.export_addr("get_secret").is_some());
        assert!(image.export_addr("nope").is_none());
        assert!(!image.code().is_empty());
        assert!(!image.data().is_empty());
    }

    #[test]
    fn region_covers_code_and_data() {
        let image = secret_module_image();
        let region = image.region();
        assert!(region
            .code()
            .contains(&image.export_addr("get_secret").unwrap()));
        assert!(region.data().contains(&image.data_base()));
        assert!(region.is_entry(image.export_addr("get_secret").unwrap()));
    }

    #[test]
    fn tampering_changes_code() {
        let mut image = secret_module_image();
        let before = image.code().to_vec();
        image.tamper_code_bit(10, 0);
        assert_ne!(image.code(), &before[..]);
    }
}
