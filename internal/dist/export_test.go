package dist

// Frame types the external tests tell apart on the wire (the type byte
// sits at FrameTypeOffset of a frame, which is always one Write).
const (
	MsgLease        = msgLease
	MsgLeaseResult  = msgLeaseResult
	FrameTypeOffset = 4
)

// A checkpoint's version byte follows its magic.
const (
	CheckpointVersion   = checkpointVersion
	CheckpointVersionAt = 2 + len(checkpointMagic)
)

// ReencodeCheckpoint decodes a checkpoint and encodes it again, at the
// current version.
func ReencodeCheckpoint(blob []byte) ([]byte, error) {
	ck, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, err
	}
	return encodeCheckpoint(ck)
}
