package relation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"cmfuzz/internal/core/configmodel"
)

// benchProbe simulates a startup probe: booting a protocol subject is
// dominated by startup latency (process exec, socket setup, config
// parsing), modeled as a 1ms wait plus a little hashing CPU. Latency-
// bound startups are exactly what the executor overlaps, so the
// benchmark reflects the deployment win rather than raw CPU scaling.
func benchProbe(cfg configmodel.Assignment) int {
	time.Sleep(time.Millisecond)
	sum := sha256.Sum256([]byte(cfg.String()))
	for i := 0; i < 200; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return 100 + int(binary.LittleEndian.Uint16(sum[:2])%64)
}

func benchModel() *configmodel.Model {
	var ents []configmodel.Entity
	for i := 0; i < 8; i++ {
		ents = append(ents, configmodel.Entity{
			Name:    string(rune('a' + i)),
			Default: "d0",
			Values:  []string{"d0", "v1", "v2", "v3"},
		})
	}
	return configmodel.NewModel(ents)
}

// BenchmarkQuantify measures relation quantification of an 8-entity,
// 4-value model (277 unique startups) at several probe worker counts.
// workers=1 is the pre-executor sequential path; results are
// byte-identical at every worker count.
func BenchmarkQuantify(b *testing.B) {
	model := benchModel()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Quantify(model, benchProbe, Options{Workers: workers})
				if len(res.Probed) == 0 {
					b.Fatal("no probes executed")
				}
			}
		})
	}
}
