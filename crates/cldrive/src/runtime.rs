//! Runtime value and memory representation for the NDRange interpreter.

use crate::value::Operand;
use cl_frontend::ast::ScalarType;

/// A scalar runtime value: integer or floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer value (all integer widths are modelled as `i64`).
    I(i64),
    /// Floating point value (all float widths are modelled as `f64`).
    F(f64),
}

impl Scalar {
    /// Interpret as f64 (integers are converted).
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::I(v) => v as f64,
            Scalar::F(v) => v,
        }
    }

    /// Interpret as i64 (floats are truncated).
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::I(v) => v,
            Scalar::F(v) => v as i64,
        }
    }

    /// Truthiness (C semantics: non-zero is true).
    pub fn as_bool(self) -> bool {
        match self {
            Scalar::I(v) => v != 0,
            Scalar::F(v) => v != 0.0,
        }
    }

    /// True if this is a floating point scalar.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::F(_))
    }

    /// Zero of the given OpenCL scalar type.
    pub fn zero_of(ty: ScalarType) -> Scalar {
        if ty.is_float() {
            Scalar::F(0.0)
        } else {
            Scalar::I(0)
        }
    }

    /// Convert this scalar to the representation class of `ty`.
    pub fn convert_to(self, ty: ScalarType) -> Scalar {
        if ty.is_float() {
            Scalar::F(self.as_f64())
        } else {
            Scalar::I(self.as_i64())
        }
    }

    /// Approximate equality with an epsilon for floats (exact for integers).
    pub fn approx_eq(self, other: Scalar, epsilon: f64) -> bool {
        match (self, other) {
            (Scalar::I(a), Scalar::I(b)) => a == b,
            (a, b) => {
                let (a, b) = (a.as_f64(), b.as_f64());
                if a.is_nan() && b.is_nan() {
                    return true;
                }
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() <= epsilon * scale
            }
        }
    }
}

/// A pointer into a [`Buffer`], possibly with remaining array dimensions for
/// multi-dimensional private/local arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct PtrValue {
    /// Index of the buffer in the interpreter's buffer table.
    pub buffer: usize,
    /// Offset in *elements* (not scalars) from the start of the buffer.
    pub offset: i64,
    /// Remaining array dimensions (empty for plain pointers): indexing a
    /// pointer with dims `[16, 16]` peels the first dimension.
    pub dims: Vec<usize>,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar.
    Scalar(Scalar),
    /// A short vector (2/3/4/8/16 lanes).
    Vector(Vec<Scalar>),
    /// A pointer into a buffer.
    Ptr(PtrValue),
    /// The unit value of `void` expressions (e.g. a call to `barrier`).
    Void,
}

impl Value {
    /// Shorthand integer.
    pub fn int(v: i64) -> Value {
        Value::Scalar(Scalar::I(v))
    }

    /// Shorthand float.
    pub fn float(v: f64) -> Value {
        Value::Scalar(Scalar::F(v))
    }

    /// The scalar content, broadcasting rule: vectors yield their first lane.
    pub fn as_scalar(&self) -> Scalar {
        match self {
            Value::Scalar(s) => *s,
            Value::Vector(v) => v.first().copied().unwrap_or(Scalar::I(0)),
            Value::Ptr(p) => Scalar::I(p.offset),
            Value::Void => Scalar::I(0),
        }
    }

    /// Truthiness.
    pub fn as_bool(&self) -> bool {
        self.as_scalar().as_bool()
    }

    /// Number of lanes (1 for scalars).
    pub fn lanes(&self) -> usize {
        match self {
            Value::Vector(v) => v.len(),
            _ => 1,
        }
    }

    /// Lane accessor with broadcasting (scalars return themselves).
    pub fn lane(&self, i: usize) -> Scalar {
        match self {
            Value::Vector(v) => v.get(i).copied().unwrap_or(Scalar::I(0)),
            other => other.as_scalar(),
        }
    }
}

/// Which address space a buffer lives in (affects the device cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferSpace {
    /// `__global` memory, transferred between host and device.
    Global,
    /// `__local` memory, on-chip scratch.
    Local,
    /// `__constant` memory.
    Constant,
    /// `__private` arrays declared inside a kernel.
    Private,
}

/// A linear buffer of scalars. Vector-element buffers store their lanes
/// contiguously, so a `float4` buffer of `n` elements holds `4 n` scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Element scalar type.
    pub elem: ScalarType,
    /// Lanes per element (1 for scalar buffers, 4 for `float4`, ...).
    pub lanes: usize,
    /// Address space.
    pub space: BufferSpace,
    /// Scalar storage, length = elements * lanes.
    pub data: Vec<Scalar>,
}

impl Buffer {
    /// Allocate a zero-filled buffer of `elements` elements.
    pub fn zeroed(elem: ScalarType, lanes: usize, elements: usize, space: BufferSpace) -> Buffer {
        Buffer {
            elem,
            lanes,
            space,
            data: vec![Scalar::zero_of(elem); elements * lanes],
        }
    }

    /// Number of elements (not scalars).
    pub fn elements(&self) -> usize {
        match self.lanes {
            1 => self.data.len(),
            lanes => self.data.len().checked_div(lanes).unwrap_or(0),
        }
    }

    /// Size in bytes (as the host driver would allocate it).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * self.elem.size_bytes()
    }

    /// The element an access to `index` touches: out-of-bounds accesses clamp
    /// to the nearest element (the executors report them separately) so that
    /// faulty kernels remain analysable. `None` when the buffer is empty.
    pub fn locate(&self, index: i64) -> Option<usize> {
        let n = self.elements() as i64;
        (n > 0).then(|| index.clamp(0, n - 1) as usize)
    }

    /// Load the element at `index` (a scalar or a vector depending on lanes);
    /// an empty buffer reads as integer zero.
    pub fn load(&self, index: i64) -> Value {
        self.load_as(index)
    }

    /// [`Buffer::load`] into any executor's value representation.
    pub(crate) fn load_as<V: Operand>(&self, index: i64) -> V {
        match self.locate(index) {
            None => V::from_scalar(Scalar::I(0)),
            Some(idx) if self.lanes == 1 => V::from_scalar(self.data[idx]),
            Some(idx) => V::from_lanes(self.lanes, |lane| self.data[idx * self.lanes + lane]),
        }
    }

    /// Store a value at `index` (vector stores write all lanes; scalar stores
    /// into vector buffers broadcast).
    pub fn store(&mut self, index: i64, value: &Value) {
        self.store_from(index, value);
    }

    /// [`Buffer::store`] from any executor's value representation.
    pub(crate) fn store_from<V: Operand>(&mut self, index: i64, value: &V) {
        let Some(idx) = self.locate(index) else {
            return;
        };
        let elem = self.elem;
        if self.lanes == 1 {
            self.data[idx] = value.as_scalar().convert_to(elem);
        } else {
            for lane in 0..self.lanes {
                self.data[idx * self.lanes + lane] = value.lane(lane).convert_to(elem);
            }
        }
    }

    /// Load a single scalar lane of the element at `index`.
    pub fn load_lane(&self, index: i64, lane: usize) -> Scalar {
        match self.locate(index) {
            None => Scalar::I(0),
            Some(idx) => self.data[idx * self.lanes + lane.min(self.lanes - 1)],
        }
    }

    /// Store a single scalar lane of the element at `index`.
    pub fn store_lane(&mut self, index: i64, lane: usize, value: Scalar) {
        if let Some(idx) = self.locate(index) {
            let lane = lane.min(self.lanes - 1);
            self.data[idx * self.lanes + lane] = value.convert_to(self.elem);
        }
    }

    /// True if any scalar differs from `other` by more than `epsilon`
    /// (relative for floats, exact for ints). Buffers of different shapes are
    /// always considered different.
    pub fn differs_from(&self, other: &Buffer, epsilon: f64) -> bool {
        if self.data.len() != other.data.len() {
            return true;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .any(|(a, b)| !a.approx_eq(*b, epsilon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::I(3).as_f64(), 3.0);
        assert_eq!(Scalar::F(2.7).as_i64(), 2);
        assert!(Scalar::F(1.0).as_bool());
        assert!(!Scalar::I(0).as_bool());
        assert_eq!(Scalar::F(2.5).convert_to(ScalarType::Int), Scalar::I(2));
        assert_eq!(Scalar::I(2).convert_to(ScalarType::Float), Scalar::F(2.0));
    }

    #[test]
    fn approx_eq_uses_relative_epsilon() {
        assert!(Scalar::F(1000.0).approx_eq(Scalar::F(1000.0001), 1e-6));
        assert!(!Scalar::F(1.0).approx_eq(Scalar::F(1.1), 1e-6));
        assert!(Scalar::I(5).approx_eq(Scalar::I(5), 0.0));
        assert!(!Scalar::I(5).approx_eq(Scalar::I(6), 0.5));
    }

    #[test]
    fn buffer_load_store_scalar() {
        let mut buf = Buffer::zeroed(ScalarType::Float, 1, 4, BufferSpace::Global);
        buf.store(2, &Value::float(1.5));
        assert_eq!(buf.load(2), Value::float(1.5));
        assert_eq!(buf.elements(), 4);
        assert_eq!(buf.size_bytes(), 16);
    }

    #[test]
    fn buffer_load_store_vector() {
        let mut buf = Buffer::zeroed(ScalarType::Float, 4, 3, BufferSpace::Global);
        let v = Value::Vector(vec![
            Scalar::F(1.0),
            Scalar::F(2.0),
            Scalar::F(3.0),
            Scalar::F(4.0),
        ]);
        buf.store(1, &v);
        assert_eq!(buf.load(1), v);
        assert_eq!(buf.load_lane(1, 2), Scalar::F(3.0));
        buf.store_lane(1, 2, Scalar::F(9.0));
        assert_eq!(buf.load_lane(1, 2), Scalar::F(9.0));
    }

    #[test]
    fn buffer_out_of_bounds_clamps() {
        let mut buf = Buffer::zeroed(ScalarType::Int, 1, 2, BufferSpace::Global);
        buf.store(100, &Value::int(7));
        assert_eq!(buf.load(100), Value::int(7));
        assert_eq!(buf.load(1), Value::int(7));
        buf.store(-5, &Value::int(3));
        assert_eq!(buf.load(0), Value::int(3));
    }

    #[test]
    fn buffer_difference_detection() {
        let mut a = Buffer::zeroed(ScalarType::Float, 1, 4, BufferSpace::Global);
        let b = Buffer::zeroed(ScalarType::Float, 1, 4, BufferSpace::Global);
        assert!(!a.differs_from(&b, 1e-8));
        a.store(0, &Value::float(1.0));
        assert!(a.differs_from(&b, 1e-8));
    }

    #[test]
    fn value_lane_broadcasting() {
        let s = Value::float(2.0);
        assert_eq!(s.lane(3), Scalar::F(2.0));
        let v = Value::Vector(vec![Scalar::I(1), Scalar::I(2)]);
        assert_eq!(v.lane(1), Scalar::I(2));
        assert_eq!(v.lanes(), 2);
    }
}
