//! Byte mutations of a reader's valid input, for the "parse or fail
//! typed, never panic" proptests of the text readers.

/// One mutation of `base`, chosen by `kind` (taken modulo 6):
///
/// 0. flip the bits `bits | 1` of the byte at `at`;
/// 1. truncate at `at`;
/// 2. splice: `base` up to `at`, then `base` again from `span`;
/// 3. duplicate the bytes from `at` up to a tenth of the rest (`span`);
/// 4. duplicate the line holding `at`;
/// 5. swap the line holding `at` with the line holding `span`.
///
/// `at` and `span` are fractions in `[0, 1)` of the relevant length. The
/// result is read as UTF-8 with invalid sequences replaced, since the
/// readers take text.
pub(crate) fn mutate(base: &str, kind: u8, at: f64, span: f64, bits: u8) -> String {
    let b = base.as_bytes();
    let pos = ((b.len() as f64) * at) as usize;
    let bytes: Vec<u8> = match kind % 6 {
        0 => {
            let mut m = b.to_vec();
            if let Some(byte) = m.get_mut(pos) {
                *byte ^= bits | 1;
            }
            m
        }
        1 => b[..pos].to_vec(),
        2 => {
            let from = ((b.len() as f64) * span) as usize;
            [&b[..pos], &b[from..]].concat()
        }
        3 => {
            let len = ((b.len() - pos) as f64 * span * 0.1) as usize;
            [&b[..pos], &b[pos..pos + len], &b[pos..]].concat()
        }
        kind => {
            let mut lines: Vec<&str> = base.split_inclusive('\n').collect();
            let line = |f: f64| ((lines.len() as f64) * f) as usize;
            let (i, j) = (line(at), line(span));
            if !lines.is_empty() {
                if kind == 4 {
                    lines.insert(i, lines[i]);
                } else {
                    lines.swap(i, j);
                }
            }
            lines.concat().into_bytes()
        }
    };
    String::from_utf8_lossy(&bytes).into_owned()
}
