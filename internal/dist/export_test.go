package dist

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

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

// Fixture returns testdata/name, a gzipped checkpoint an older build
// wrote, inflated.
func Fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// v1Checkpoint is the version-1 checkpoint an older build wrote.
func v1Checkpoint(tb testing.TB) []byte { return Fixture(tb, "checkpoint_v1.bin.gz") }

// v2Checkpoint is the version-2 checkpoint an older build wrote from
// midCampaignCheckpoint.
func v2Checkpoint(tb testing.TB) []byte { return Fixture(tb, "checkpoint_v2.bin.gz") }
