//go:build amd64 && !amd64.v3

// The golden hashes hold only where the compiler cannot fuse a multiply and
// an add into one FMA instruction: GOAMD64=v3 and other architectures may
// round the same expressions differently.

package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"after/internal/core"
	"after/internal/nn"
)

// putBits writes each value's float64 bit pattern into h.
func putBits(h hash.Hash, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashParams writes every parameter's name and value bits into h, in name
// order.
func hashParams(h hash.Hash, p *nn.Params) {
	names := p.Names()
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		putBits(h, p.Get(name).Value.Data...)
	}
}

// TestTrainingGolden pins POSHGNN, TGCN and DCRNN training bit for bit: a
// hash of every trained parameter, of POSHGNN's update count and per-epoch
// loss and gradient-norm curve, and of the recurrent kernels' weights at
// every validation plus the restored winner. The validation score
// alternates 1, 0, 1, so early stopping restores the first epoch's weights
// and the snapshot/restore path runs. A refactor of the training stack must
// leave every hash unchanged.
func TestTrainingGolden(t *testing.T) {
	rm := room(t, 21, 12)
	eps := []core.Episode{{Room: rm, Target: 0}, {Room: rm, Target: 5}}
	poshgnn := func(cfg core.Config) func(hash.Hash) error {
		return func(h hash.Hash) error {
			m := core.New(cfg)
			stats, err := m.Train(eps)
			if err != nil {
				return err
			}
			putBits(h, float64(stats.Steps))
			for _, es := range stats.Epochs {
				putBits(h, es.Loss, es.GradNorm)
			}
			hashParams(h, m.Params())
			return nil
		}
	}
	recurrent := func(build func(RecurrentConfig) *Recurrent) func(hash.Hash) error {
		return func(h hash.Hash) error {
			m := build(RecurrentConfig{Epochs: 3, Seed: 4})
			calls := 0
			best, err := m.Train(eps, func() (float64, error) {
				hashParams(h, m.Params())
				calls++
				return float64(calls % 2), nil
			})
			if err != nil {
				return err
			}
			if calls != 3 {
				t.Errorf("%s: %d validations in 3 epochs", m.Name(), calls)
			}
			putBits(h, best)
			hashParams(h, m.Params())
			return nil
		}
	}
	for _, c := range []struct {
		name string
		run  func(hash.Hash) error
		want string
	}{
		{"POSHGNN", poshgnn(core.Config{UseMIA: true, UseLWP: true, Epochs: 2, Seed: 3}),
			"f77675611054b0bf02256d9c0c488e95d08990172e8eb2ce7bdee65b5770b053"},
		{"OnlyPDR", poshgnn(core.Config{Epochs: 2, Seed: 3}),
			"9ad95ea201eeb2b764a147cb0ab9668c19d82403568dfa35a481b05e07dac6b3"},
		{"TGCN", recurrent(NewTGCN),
			"0f01a31950cd9aa7012a91547198e6cd7ad3c1f35b8b7818781b2a97e84b1a26"},
		{"DCRNN", recurrent(NewDCRNN),
			"f5bf2523702eed913c936cdcddc779c160703045528efc165b7f058f135c1314"},
	} {
		h := sha256.New()
		if err := c.run(h); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: training hash %s, want %s", c.name, got, c.want)
		}
	}
}
