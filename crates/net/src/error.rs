use core::fmt;

/// Errors produced while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The buffer is too short to hold the header (or the length field
    /// claims more data than the buffer provides).
    Truncated,
    /// A field holds a value that is structurally invalid (e.g. IP version
    /// mismatch, UDP length shorter than its own header, a length that does
    /// not fit its field).
    Malformed,
    /// The packet is valid but uses a feature the Tango data plane does not
    /// implement (unknown Tango header flags).
    Unsupported,
    /// A Tango header had the wrong magic or an unknown version.
    NotTango,
    /// A prefix length was out of range for the address family.
    PrefixLen,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer too short for header"),
            Error::Malformed => write!(f, "structurally invalid field"),
            Error::Unsupported => write!(f, "unsupported feature (unknown Tango flags)"),
            Error::NotTango => write!(f, "not a Tango tunnel header"),
            Error::PrefixLen => write!(f, "prefix length out of range"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for results in this crate.
pub type Result<T> = core::result::Result<T, Error>;
