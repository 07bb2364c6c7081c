//! The one primitive of the index segment codec ([`crate::integrity`]) the
//! workspace's byte cursor ([`qa_types::wire`]) does not carry: varints
//! are the postings codec's.

use crate::postings::read_varint;
use qa_types::wire::Reader;
use qa_types::QaError;

pub(crate) fn varint(r: &mut Reader<'_>) -> Result<u32, QaError> {
    let (v, read) =
        read_varint(r.rest()).ok_or_else(|| QaError::Codec("unexpected end of input".into()))?;
    r.take(read)?;
    Ok(v)
}
