//! The closed registry of library functions callable from UDFs.
//!
//! The paper assumes "a superset of arithmetic and string operations and
//! library calls, covering all major usages [...] as well as numpy and math
//! library calls" encoded as one-hot vectors (Section III-A). This enum *is*
//! that vocabulary: every entry has a stable one-hot index, a printable
//! Python name, an arity, and a base cost weight used by the interpreter's
//! work accounting.

/// Category of a library function, used for coarse featurization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibCategory {
    Math,
    Numpy,
    Builtin,
    Str,
}

/// Every callable the UDF language supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibFn {
    // --- math module ---
    MathSqrt,
    MathPow,
    MathLog,
    MathExp,
    MathSin,
    MathCos,
    MathFloor,
    MathCeil,
    MathFabs,
    MathAtan,
    // --- numpy (scalar usage) ---
    NpAbs,
    NpSqrt,
    NpLog,
    NpExp,
    NpPower,
    NpMinimum,
    NpMaximum,
    NpClip,
    NpSign,
    NpRound,
    // --- Python builtins ---
    BuiltinLen,
    BuiltinAbs,
    BuiltinInt,
    BuiltinFloat,
    BuiltinStr,
    BuiltinMin,
    BuiltinMax,
    BuiltinRound,
    // --- string methods ---
    StrUpper,
    StrLower,
    StrStrip,
    StrReplace,
    StrStartswith,
    StrEndswith,
    StrFind,
    StrSplitCount, // `len(s.split(sep))` fused: counts separator occurrences
}

impl LibFn {
    /// Every function in one-hot order.
    pub const ALL: [LibFn; 36] = [
        LibFn::MathSqrt,
        LibFn::MathPow,
        LibFn::MathLog,
        LibFn::MathExp,
        LibFn::MathSin,
        LibFn::MathCos,
        LibFn::MathFloor,
        LibFn::MathCeil,
        LibFn::MathFabs,
        LibFn::MathAtan,
        LibFn::NpAbs,
        LibFn::NpSqrt,
        LibFn::NpLog,
        LibFn::NpExp,
        LibFn::NpPower,
        LibFn::NpMinimum,
        LibFn::NpMaximum,
        LibFn::NpClip,
        LibFn::NpSign,
        LibFn::NpRound,
        LibFn::BuiltinLen,
        LibFn::BuiltinAbs,
        LibFn::BuiltinInt,
        LibFn::BuiltinFloat,
        LibFn::BuiltinStr,
        LibFn::BuiltinMin,
        LibFn::BuiltinMax,
        LibFn::BuiltinRound,
        LibFn::StrUpper,
        LibFn::StrLower,
        LibFn::StrStrip,
        LibFn::StrReplace,
        LibFn::StrStartswith,
        LibFn::StrEndswith,
        LibFn::StrFind,
        LibFn::StrSplitCount,
    ];

    /// Number of functions (one-hot width).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable one-hot index: the discriminant, as `ALL` is in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn category(self) -> LibCategory {
        use LibFn::*;
        match self {
            MathSqrt | MathPow | MathLog | MathExp | MathSin | MathCos | MathFloor | MathCeil
            | MathFabs | MathAtan => LibCategory::Math,
            NpAbs | NpSqrt | NpLog | NpExp | NpPower | NpMinimum | NpMaximum | NpClip | NpSign
            | NpRound => LibCategory::Numpy,
            BuiltinLen | BuiltinAbs | BuiltinInt | BuiltinFloat | BuiltinStr | BuiltinMin
            | BuiltinMax | BuiltinRound => LibCategory::Builtin,
            StrUpper | StrLower | StrStrip | StrReplace | StrStartswith | StrEndswith | StrFind
            | StrSplitCount => LibCategory::Str,
        }
    }

    /// True for string *methods* (printed as `recv.name(...)`).
    pub fn is_method(self) -> bool {
        self.category() == LibCategory::Str
    }

    /// True when the typed lanes of [`crate::simd`] have a kernel for this
    /// function: everything numeric. String methods and the two builtins
    /// that read or build a string run on the scalar VM only.
    pub fn has_lane_kernel(self) -> bool {
        !(self.is_method() || matches!(self, LibFn::BuiltinLen | LibFn::BuiltinStr))
    }

    /// Python-style printable name.
    pub fn python_name(self) -> &'static str {
        use LibFn::*;
        match self {
            MathSqrt => "math.sqrt",
            MathPow => "math.pow",
            MathLog => "math.log",
            MathExp => "math.exp",
            MathSin => "math.sin",
            MathCos => "math.cos",
            MathFloor => "math.floor",
            MathCeil => "math.ceil",
            MathFabs => "math.fabs",
            MathAtan => "math.atan",
            NpAbs => "np.abs",
            NpSqrt => "np.sqrt",
            NpLog => "np.log",
            NpExp => "np.exp",
            NpPower => "np.power",
            NpMinimum => "np.minimum",
            NpMaximum => "np.maximum",
            NpClip => "np.clip",
            NpSign => "np.sign",
            NpRound => "np.round",
            BuiltinLen => "len",
            BuiltinAbs => "abs",
            BuiltinInt => "int",
            BuiltinFloat => "float",
            BuiltinStr => "str",
            BuiltinMin => "min",
            BuiltinMax => "max",
            BuiltinRound => "round",
            StrUpper => "upper",
            StrLower => "lower",
            StrStrip => "strip",
            StrReplace => "replace",
            StrStartswith => "startswith",
            StrEndswith => "endswith",
            StrFind => "find",
            StrSplitCount => "splitcount",
        }
    }

    /// Number of arguments (excluding the receiver for methods).
    pub fn arity(self) -> usize {
        use LibFn::*;
        match self {
            MathPow | NpPower | NpMinimum | NpMaximum | BuiltinMin | BuiltinMax => 2,
            NpClip => 3,
            StrReplace => 2,
            StrStartswith | StrEndswith | StrFind | StrSplitCount => 1,
            StrUpper | StrLower | StrStrip => 0,
            _ => 1,
        }
    }

    /// Base cost in work units (≈ simulated nanoseconds in CPython terms).
    ///
    /// `numpy` scalar calls are *more* expensive than `math` ones — exactly
    /// the ufunc-dispatch overhead DuckDB's Python UDFs exhibit; string
    /// methods additionally pay a per-character cost in the interpreter.
    pub fn base_cost(self) -> f64 {
        use LibFn::*;
        match self {
            MathSqrt | MathFabs | MathFloor | MathCeil => 60.0,
            MathPow | MathLog | MathExp | MathSin | MathCos | MathAtan => 90.0,
            NpAbs | NpSqrt | NpSign => 320.0,
            NpLog | NpExp | NpPower | NpRound => 380.0,
            NpMinimum | NpMaximum | NpClip => 340.0,
            BuiltinLen => 25.0,
            BuiltinAbs | BuiltinInt | BuiltinFloat | BuiltinRound => 35.0,
            BuiltinStr => 55.0,
            BuiltinMin | BuiltinMax => 45.0,
            StrUpper | StrLower | StrStrip => 50.0,
            StrReplace | StrFind | StrSplitCount => 70.0,
            StrStartswith | StrEndswith => 40.0,
        }
    }

    /// Resolve a parsed call by module/name. `recv_is_str` selects between
    /// builtins and string methods for bare names.
    pub fn resolve(module: Option<&str>, name: &str) -> Option<LibFn> {
        use LibFn::*;
        let f = match (module, name) {
            (Some("math"), "sqrt") => MathSqrt,
            (Some("math"), "pow") => MathPow,
            (Some("math"), "log") => MathLog,
            (Some("math"), "exp") => MathExp,
            (Some("math"), "sin") => MathSin,
            (Some("math"), "cos") => MathCos,
            (Some("math"), "floor") => MathFloor,
            (Some("math"), "ceil") => MathCeil,
            (Some("math"), "fabs") => MathFabs,
            (Some("math"), "atan") => MathAtan,
            (Some("np") | Some("numpy"), "abs") => NpAbs,
            (Some("np") | Some("numpy"), "sqrt") => NpSqrt,
            (Some("np") | Some("numpy"), "log") => NpLog,
            (Some("np") | Some("numpy"), "exp") => NpExp,
            (Some("np") | Some("numpy"), "power") => NpPower,
            (Some("np") | Some("numpy"), "minimum") => NpMinimum,
            (Some("np") | Some("numpy"), "maximum") => NpMaximum,
            (Some("np") | Some("numpy"), "clip") => NpClip,
            (Some("np") | Some("numpy"), "sign") => NpSign,
            (Some("np") | Some("numpy"), "round") => NpRound,
            (None, "len") => BuiltinLen,
            (None, "abs") => BuiltinAbs,
            (None, "int") => BuiltinInt,
            (None, "float") => BuiltinFloat,
            (None, "str") => BuiltinStr,
            (None, "min") => BuiltinMin,
            (None, "max") => BuiltinMax,
            (None, "round") => BuiltinRound,
            _ => return None,
        };
        Some(f)
    }

    /// Resolve a method name (`s.upper()` …).
    pub fn resolve_method(name: &str) -> Option<LibFn> {
        use LibFn::*;
        Some(match name {
            "upper" => StrUpper,
            "lower" => StrLower,
            "strip" => StrStrip,
            "replace" => StrReplace,
            "startswith" => StrStartswith,
            "endswith" => StrEndswith,
            "find" => StrFind,
            "splitcount" => StrSplitCount,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, f) in LibFn::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        assert_eq!(LibFn::COUNT, LibFn::ALL.len());
        // Every function is listed: the last one declared indexes the last slot.
        assert_eq!(LibFn::StrSplitCount.index() + 1, LibFn::COUNT);
    }

    #[test]
    fn resolve_round_trips_for_free_functions() {
        for f in LibFn::ALL {
            if f.is_method() {
                assert_eq!(LibFn::resolve_method(f.python_name()), Some(f));
            } else {
                let full = f.python_name();
                let (module, name) = match full.split_once('.') {
                    Some((m, n)) => (Some(m), n),
                    None => (None, full),
                };
                assert_eq!(LibFn::resolve(module, name), Some(f), "resolving {full}");
            }
        }
    }

    #[test]
    fn numpy_is_pricier_than_math() {
        assert!(LibFn::NpSqrt.base_cost() > LibFn::MathSqrt.base_cost());
        assert!(LibFn::NpLog.base_cost() > LibFn::MathLog.base_cost());
    }

    #[test]
    fn unknown_names_do_not_resolve() {
        assert_eq!(LibFn::resolve(Some("math"), "nope"), None);
        assert_eq!(LibFn::resolve(Some("os"), "system"), None);
        assert_eq!(LibFn::resolve_method("join"), None);
    }

    #[test]
    fn arities() {
        assert_eq!(LibFn::MathSqrt.arity(), 1);
        assert_eq!(LibFn::MathPow.arity(), 2);
        assert_eq!(LibFn::NpClip.arity(), 3);
        assert_eq!(LibFn::StrUpper.arity(), 0);
        assert_eq!(LibFn::StrReplace.arity(), 2);
    }
}
