// custom-subject shows how to put your own protocol implementation under
// CMFuzz: implement the Subject/Instance contract for a tiny TFTP-like
// file transfer server, hand the framework its configuration sources and
// Pit models, and run the full identification → scheduling → fuzzing
// pipeline against it.
//
// A campaign runs each instance on a goroutine of its own, so everything
// an instance touches lives in the instance (tftpServer's fields, files
// included); a subject's instances must share no mutable state.
package main

import (
	"fmt"
	"log"

	"cmfuzz"
	"cmfuzz/internal/core/configspec"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/protocols/probes"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/wire"
)

// --- the protocol implementation under test -------------------------------

// tftpServer is a miniature TFTP-like server: RRQ/WRQ/DATA/ACK/ERROR
// packets, an optional "windowsize" extension, and an optional read-only
// mode. Its configuration surface is a small key-value file.
type tftpServer struct {
	tr        *coverage.Trace
	readOnly  bool
	window    int
	timeout   int
	blockSize int
	files     map[string][]byte
}

const (
	opRRQ   = 1
	opWRQ   = 2
	opDATA  = 3
	opACK   = 4
	opERROR = 5
)

func (s *tftpServer) Start(cfg map[string]string, tr *coverage.Trace) error {
	s.tr = tr
	s.readOnly = probes.Bool(cfg, "read-only", false)
	s.window = probes.Int(cfg, "windowsize", 1)
	s.timeout = probes.Int(cfg, "timeout", 5)
	s.blockSize = probes.Int(cfg, "blocksize", 512)
	if s.blockSize < 8 || s.blockSize > 65464 {
		return fmt.Errorf("tftp: blocksize out of range")
	}
	if s.window < 1 {
		return fmt.Errorf("tftp: windowsize must be positive")
	}
	s.files = map[string][]byte{"motd": []byte("hello from tftp")}
	// Startup coverage: base + per-feature regions.
	for i := uint64(0); i < 6; i++ {
		tr.Edge(1, i)
	}
	tr.Edge(2, probes.Bucket(s.blockSize))
	tr.Edge(2, 32+probes.Bucket(s.timeout))
	if s.readOnly {
		tr.Edge(3, 0)
		tr.Edge(3, 1)
	}
	if s.window > 1 {
		tr.Edge(4, uint64(s.window%16))
		if s.blockSize > 512 {
			tr.Edge(5, 0) // large-transfer synergy
		}
	}
	return nil
}

func (s *tftpServer) SetTrace(tr *coverage.Trace) { s.tr = tr }
func (s *tftpServer) NewSession()                 {}
func (s *tftpServer) Close()                      {}

func (s *tftpServer) Message(data []byte) [][]byte {
	r := wire.NewReader(data)
	op := r.U16()
	if r.Err() != nil {
		s.tr.Edge(10, 0)
		return nil
	}
	s.tr.Edge(10, uint64(op%8))
	switch op {
	case opRRQ:
		name := readCString(r)
		s.tr.Edge(11, probes.Hash(name)%128)
		if body, ok := s.files[name]; ok {
			w := wire.NewWriter(4 + len(body))
			w.U16(opDATA)
			w.U16(1)
			w.Raw(body)
			return [][]byte{w.Bytes()}
		}
		return [][]byte{tftpError(1, "file not found")}
	case opWRQ:
		name := readCString(r)
		s.tr.Edge(12, probes.Hash(name)%128)
		if s.readOnly {
			s.tr.Edge(12, 200)
			return [][]byte{tftpError(2, "read-only server")}
		}
		if len(s.files) < 128 {
			s.files[name] = nil
		}
		w := wire.NewWriter(4)
		w.U16(opACK)
		w.U16(0)
		return [][]byte{w.Bytes()}
	case opDATA:
		block := r.U16()
		payload := r.Rest()
		s.tr.Edge(13, probes.Bucket(int(block)))
		s.tr.Edge(13, 32+probes.HashBytes(payload)%256)
		if len(payload) > s.blockSize {
			s.tr.Edge(13, 300)
			return [][]byte{tftpError(4, "block too large")}
		}
		w := wire.NewWriter(4)
		w.U16(opACK)
		w.U16(block)
		return [][]byte{w.Bytes()}
	case opACK:
		s.tr.Edge(14, probes.Bucket(int(r.U16())))
		return nil
	case opERROR:
		s.tr.Edge(15, uint64(r.U16()%16))
		return nil
	default:
		s.tr.Edge(10, 100+uint64(op%64))
		return nil
	}
}

func readCString(r *wire.Reader) string {
	var out []byte
	for !r.Empty() {
		b := r.U8()
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

func tftpError(code uint16, msg string) []byte {
	w := wire.NewWriter(5 + len(msg))
	w.U16(opERROR)
	w.U16(code)
	w.Raw([]byte(msg))
	w.U8(0)
	return w.Bytes()
}

// --- the Subject wrapper ---------------------------------------------------

type tftpSubject struct{}

func (tftpSubject) Info() subject.Info {
	return subject.Info{Protocol: "TFTP", Implementation: "tinytftp", Transport: subject.Datagram, Port: 69}
}

func (tftpSubject) ConfigInput() configspec.Input {
	return configspec.Input{Files: []configspec.File{{Name: "tftp.conf", Content: `# tinytftp configuration
blocksize=512
timeout=5
windowsize=1
# read-only=true
`}}}
}

func (tftpSubject) PitXML() string {
	return `<?xml version="1.0"?>
<Peach>
  <DataModel name="Read">
    <Number name="op" bits="16" value="1" token="true"/>
    <String name="file" value="motd"/>
    <Number name="z1" bits="8" value="0" token="true"/>
    <String name="mode" value="octet"/>
    <Number name="z2" bits="8" value="0" token="true"/>
  </DataModel>
  <DataModel name="Write">
    <Number name="op" bits="16" value="2" token="true"/>
    <String name="file" value="upload.bin"/>
    <Number name="z1" bits="8" value="0" token="true"/>
    <String name="mode" value="octet"/>
    <Number name="z2" bits="8" value="0" token="true"/>
  </DataModel>
  <DataModel name="Data">
    <Number name="op" bits="16" value="3" token="true"/>
    <Number name="block" bits="16" value="1"/>
    <Blob name="payload" valueHex="00112233"/>
  </DataModel>
  <StateModel name="Transfer" initialState="request">
    <State name="request">
      <Action type="output" dataModel="Read"/>
      <Action type="changeState" to="uploading"/>
    </State>
    <State name="uploading">
      <Action type="output" dataModel="Write"/>
      <Action type="output" dataModel="Data"/>
    </State>
  </StateModel>
</Peach>`
}

func (tftpSubject) NewInstance() subject.Instance { return &tftpServer{} }

// --- drive the pipeline ------------------------------------------------------

func main() {
	sub := tftpSubject{}

	plan, err := cmfuzz.Identify(sub, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom subject %q: %d entities, %d relation edges\n",
		sub.Info().Implementation, plan.Model.Len(), plan.Relation.Graph.EdgeCount())
	for i, a := range plan.Assignments {
		fmt.Printf("  instance %d config: %s\n", i, a.String())
	}

	res, err := cmfuzz.Fuzz(sub, cmfuzz.Options{
		Mode:         cmfuzz.ModeCMFuzz,
		Instances:    2,
		VirtualHours: 1,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fuzzed: %d branches over %d execs\n", res.FinalBranches, res.TotalExecs)
}
