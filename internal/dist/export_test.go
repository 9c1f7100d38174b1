package dist

// Frame types the external tests tell apart on the wire (the type byte
// sits at FrameTypeOffset of a frame, which is always one Write).
const (
	MsgLease        = msgLease
	MsgLeaseResult  = msgLeaseResult
	FrameTypeOffset = 4
)
