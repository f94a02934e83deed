package cache_test

import (
	"context"
	"slices"
	"testing"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/isa"
	"delinq/internal/obj"
	"delinq/internal/tables"
	"delinq/internal/vm"
)

// oracleGeoms are every geometry the table sweeps simulate (the
// standard bundle and Table S3's block sizes) plus a FIFO and a
// direct-mapped geometry, which no sweep uses.
func oracleGeoms() []cache.Config {
	geoms := slices.Concat(tables.StdGeoms, tables.BlockGeoms)
	return append(geoms,
		cache.Config{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32, Repl: cache.FIFO},
		cache.Config{SizeBytes: 8 * 1024, Assoc: 1, BlockBytes: 32},
	)
}

type access struct {
	pc, addr uint32
	store    bool
}

// TestGroupMatchesReference is the memory side's differential oracle:
// for every benchmark on both ISAs (unoptimised, Input 1), the VM run
// with all oracle geometries attached must attribute exactly the
// per-load misses, and count exactly the statistics, that the
// reference model computes from the recorded access stream one
// geometry at a time. The stream also checks the VM's execution counts
// (checkExec). A hook sends every access of a run down the VM's general
// path rather than its inline skip, so a run with both the hook and the
// caches attached must match the hook-free run and record the same
// stream as the bare run.
func TestGroupMatchesReference(t *testing.T) {
	ctx := context.Background()
	geoms := oracleGeoms()
	benches := bench.All()
	if raceEnabled {
		// The plain test run covers the whole suite; under -race one
		// pointer-chasing benchmark per ISA keeps the package well
		// inside go test's default timeout.
		benches = []*bench.Benchmark{bench.ByName("181.mcf")}
	}
	for _, isaName := range []string{"mips", "arm"} {
		for _, b := range benches {
			t.Run(isaName+"/"+b.Name, func(t *testing.T) {
				img, err := core.BuildSourceISA(b.Source, false, isaName)
				if err != nil {
					t.Fatal(err)
				}
				var stream []access
				bare, err := vm.RunContext(ctx, img, vm.Options{
					Args: b.Input1,
					OnAccess: func(pc, addr uint32, store bool) {
						stream = append(stream, access{pc, addr, store})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				newCaches := func() []*cache.Cache {
					caches := make([]*cache.Cache, len(geoms))
					for i, g := range geoms {
						if caches[i], err = cache.New(g); err != nil {
							t.Fatal(err)
						}
					}
					return caches
				}
				caches := newCaches()
				res, err := vm.RunContext(ctx, img, vm.Options{Args: b.Input1, Caches: caches})
				if err != nil {
					t.Fatal(err)
				}
				if res.Insts != bare.Insts || res.DataAccesses != int64(len(stream)) || !slices.Equal(res.Exec, bare.Exec) {
					t.Fatalf("caches changed the run: insts %d vs %d, accesses %d vs %d",
						res.Insts, bare.Insts, res.DataAccesses, len(stream))
				}
				checkExec(t, img, res, stream)
				hookedCaches := newCaches()
				var hookedStream []access
				hooked, err := vm.RunContext(ctx, img, vm.Options{
					Args:   b.Input1,
					Caches: hookedCaches,
					OnAccess: func(pc, addr uint32, store bool) {
						hookedStream = append(hookedStream, access{pc, addr, store})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if hooked.Insts != res.Insts || !slices.Equal(hooked.Exec, res.Exec) || !slices.Equal(hookedStream, stream) {
					t.Fatalf("the hook changed the run: insts %d vs %d, %d accesses recorded vs %d",
						hooked.Insts, res.Insts, len(hookedStream), len(stream))
				}
				for i, g := range geoms {
					if got, want := hookedCaches[i].Stats(), caches[i].Stats(); got != want {
						t.Errorf("%v: hooked run's Stats %+v, hook-free run's %+v", g, got, want)
					}
					if !slices.Equal(hooked.LoadMisses[i], res.LoadMisses[i]) {
						t.Errorf("%v: hooked run's load misses differ from the hook-free run's", g)
					}
				}
				for i, g := range geoms {
					ref := cache.NewRef(g)
					misses := make([]int64, len(img.Text))
					for _, a := range stream {
						if !ref.Access(a.addr, a.store) && !a.store {
							misses[(a.pc-obj.TextBase)/4]++
						}
					}
					if got := caches[i].Stats(); got != ref.Stats() {
						t.Errorf("%v: Stats %+v, reference %+v", g, got, ref.Stats())
					}
					for k := range misses {
						if res.LoadMisses[i][k] != misses[k] {
							t.Errorf("%v: pc %#x: %d load misses, reference %d", g,
								obj.TextBase+uint32(4*k), res.LoadMisses[i][k], misses[k])
							break
						}
					}
				}
			})
		}
	}
}

// checkExec checks the VM's execution counts, which it derives from
// block entries, against counts taken independently: every load and
// store word's E(i) against the accesses the recorded stream shows for
// its pc, since each execution issues exactly one, and Insts against
// the sum of E(i).
func checkExec(t *testing.T, img *obj.Image, res *vm.Result, stream []access) {
	t.Helper()
	mach, err := isa.ByName(img.ISAName())
	if err != nil {
		t.Fatal(err)
	}
	perWord := make([]int64, len(img.Text))
	for _, a := range stream {
		perWord[(a.pc-obj.TextBase)/4]++
	}
	var sum int64
	for i, w := range img.Text {
		sum += res.Exec[i]
		in, err := mach.Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		if (in.IsLoad() || in.IsStore()) && res.Exec[i] != perWord[i] {
			t.Errorf("pc %#x (%v): Exec %d, recorded accesses %d", obj.TextBase+uint32(4*i), in.Op.Name(), res.Exec[i], perWord[i])
		}
	}
	if sum != res.Insts {
		t.Errorf("Insts %d, sum of Exec %d", res.Insts, sum)
	}
}

// fuzzGeom decodes a geometry from 4 bytes (missing bytes read as 0):
// block size and set count are powers of two up to 64, associativity
// 1-8, and bit 0 of the last byte selects FIFO. The 1-byte, 1-set
// geometry it can produce is invalid and ends the input.
func fuzzGeom(b []byte) cache.Config {
	var g [4]byte
	copy(g[:], b)
	cfg := cache.Config{
		BlockBytes: 1 << (g[0] % 7),
		Assoc:      1 + int(g[2]%8),
	}
	cfg.SizeBytes = cfg.BlockBytes * (1 << (g[1] % 7)) * cfg.Assoc
	if g[3]&1 != 0 {
		cfg.Repl = cache.FIFO
	}
	return cfg
}

// fuzzHigh are the upper address halves a fuzz record picks from: low
// memory, static data, the stack, and the top of the address space,
// where a tag+1 encoding or a "no block" sentinel could wrap.
var fuzzHigh = [4]uint32{0x0000, 0x1000, 0x7fff, 0xffff}

// fuzzStream decodes 3-byte records: a flag byte (bit 0 a store, bits
// 1-2 index fuzzHigh) and the address's lower half, little-endian.
func fuzzStream(b []byte) []access {
	var out []access
	for ; len(b) >= 3; b = b[3:] {
		addr := fuzzHigh[b[0]>>1&3]<<16 | uint32(b[1]) | uint32(b[2])<<8
		out = append(out, access{addr: addr, store: b[0]&1 != 0})
	}
	return out
}

// FuzzCacheAgainstReference drives two geometries decoded from geom
// with the access stream decoded from stream, three ways: each cache's
// Access, a Group over both, and the reference model. Every access's
// hit or miss, and the final Stats, must agree.
func FuzzCacheAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, stream []byte) {
		cfgs := [2]cache.Config{fuzzGeom(geom), fuzzGeom(geom[min(4, len(geom)):])}
		var single, grouped [2]*cache.Cache
		var refs [2]*cache.Ref
		for i, cfg := range cfgs {
			var err error
			if single[i], err = cache.New(cfg); err != nil {
				return
			}
			grouped[i], _ = cache.New(cfg)
			refs[i] = cache.NewRef(cfg)
		}
		group, err := cache.NewGroup(grouped[:])
		if err != nil {
			t.Fatal(err)
		}
		for n, a := range fuzzStream(stream) {
			missed := group.Access(a.addr, a.store)
			for i, ref := range refs {
				want := ref.Access(a.addr, a.store)
				if got := single[i].Access(a.addr, a.store); got != want {
					t.Fatalf("%v: access %d to %#x: Access hit=%v, reference %v", cfgs[i], n, a.addr, got, want)
				}
				if got := missed>>i&1 == 0; got != want {
					t.Fatalf("%v: access %d to %#x: group hit=%v, reference %v", cfgs[i], n, a.addr, got, want)
				}
			}
		}
		group.Flush()
		for i, ref := range refs {
			if got := single[i].Stats(); got != ref.Stats() {
				t.Errorf("%v: Access Stats %+v, reference %+v", cfgs[i], got, ref.Stats())
			}
			if got := grouped[i].Stats(); got != ref.Stats() {
				t.Errorf("%v: group Stats %+v, reference %+v", cfgs[i], got, ref.Stats())
			}
		}
	})
}
