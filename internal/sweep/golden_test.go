package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/spec"
)

// goldenRefs is the trace length of the golden documents: long enough for
// every L1 size of the paper grid to miss and for every L2 to evict.
const goldenRefs = 20_000

// goldenDigests pins the SHA-256 of the twolevel-sweep/1 document
// (SaveJSON over one workload's RunContext points) for every workload of
// Table 1 under each two-level policy, over the paper grid: 45
// configurations, 4-way pseudo-random L2, 50 ns off-chip. Any change to
// the simulator, the cost models or the document encoding that moves a
// single counter, price or TPI changes a digest. The pins were computed
// before the sweep driver simulated each L1 once per sweep, so they also
// prove that replaying the L1 miss stream is exact.
var goldenDigests = map[string]string{
	"conventional/gcc1":     "52c5ca446f06f7fbdec358af7f30c87bd467958a27b034a0ad2eac77f2fd2259",
	"conventional/espresso": "5cfbe3ee8057f441cb20acc9d0d2693009622f192085585897c756a93e01ddc2",
	"conventional/fpppp":    "876753a5ea31f910db5b8b3aab77c691d200049f3f2e879597cd3ed09a8a7e82",
	"conventional/doduc":    "729dd0cb2803fa6882fdacf9fd3653908d25950d4db679290a8f60c6270a57fd",
	"conventional/li":       "302e19dae213215bda4dba861fed359d377b98eec94df44bf92b3a9697dbc2d6",
	"conventional/eqntott":  "f0bd7029259a18f2996998f9f7f171c322d6c36d2a7777f422c4ccfb7b0fd9b6",
	"conventional/tomcatv":  "d37fc0f9050d5ad27cfa7bc01db45a67d058a013ad8981903d6949c4723b6a7f",
	"exclusive/gcc1":        "140318536a40a00e079195d5f0617276f0326e01924d7c4d05f3b1c574fb9508",
	"exclusive/espresso":    "21a09184ce21341be4916af72fc5e3f7f20fbfcf81be298ba5c846add201021f",
	"exclusive/fpppp":       "c9b701ae07c4fe681771213ffc80e027738c3da2c612a192af103d95e7609584",
	"exclusive/doduc":       "34a291b307133926ebb5f42856eacc92c96d7db4a631b9759ca5243dcd9fa56c",
	"exclusive/li":          "b7dba54ce6fde51581bc235346504df2fd1dcf352e53d944e0e82b1e28804c9a",
	"exclusive/eqntott":     "3eb00bab763c9bb2d3fe2e2c8ca0dfa56529b362a130c5019405271a731b892f",
	"exclusive/tomcatv":     "c989a0b9594e45996f4d37997e547e5faf4f2823038875d3fa32b5be98c124e9",
	"inclusive/gcc1":        "506930126639f720ab5bbd1dd63d58ef303034ed861ccd3856f76517729827ae",
	"inclusive/espresso":    "313ee0315fc789cfa6bc56f31b7c2e4961244d2e665442cc833f87e643ae6c6d",
	"inclusive/fpppp":       "a53a61c53b9f94599188e589f71233d16f44aad281e33a7fb8eb9db4c8065a6c",
	"inclusive/doduc":       "bfe243013b1eb9f8f9e36fd472aedfaa58881bcb346552fc6c4d62d22f7d7feb",
	"inclusive/li":          "6c2ff702e301e231a0a16581f213362439d9a5d6d25d9b64172c469f44cbafec",
	"inclusive/eqntott":     "85511a1aa7c56a353926d802fd2be65b7f017a92e8afe564c0cbbf82afd324a1",
	"inclusive/tomcatv":     "ae8ae20e060406431b68ef4450e0ec68eb0a9ee7a43a394ec50dd5498c510eda",
}

// TestGoldenSweepDigests recomputes every pinned document. Under -short
// it covers the first two workloads only.
func TestGoldenSweepDigests(t *testing.T) {
	ws := spec.All()
	if testing.Short() {
		ws = ws[:2]
	}
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		for _, w := range ws {
			name := pol.String() + "/" + w.Name
			want, ok := goldenDigests[name]
			if !ok {
				t.Errorf("%s: no pinned digest", name)
				continue
			}
			points, err := RunContext(context.Background(), w, Options{Policy: pol, Refs: goldenRefs})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := len(Configs(Options{})); len(points) != n {
				t.Fatalf("%s: %d points, want %d", name, len(points), n)
			}
			h := sha256.New()
			if err := SaveJSON(h, points); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s: document digest %s, want %s", name, got, want)
			}
		}
	}
}
