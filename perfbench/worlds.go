package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"hsprofiler/internal/worldgen"
)

// The serve workloads' world: 100 metro schools, generated once per build
// of the benchmark with a fixed seed, so every run and seed reads the
// same world and only the traffic varies.
const (
	metroSchools = 100
	worldSeed    = 2013
)

// worldDir is a cache directory keyed by the benchmark binary's hash: a
// rebuilt program regenerates its worlds instead of reading stale ones.
func worldDir(workDir string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	key := hex.EncodeToString(h.Sum(nil))[:16]
	root := filepath.Join(workDir, "worlds")
	// Worlds of earlier builds are stale: remove them.
	if old, err := os.ReadDir(root); err == nil {
		for _, e := range old {
			if e.Name() != key {
				if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
					return "", err
				}
			}
		}
	}
	dir := filepath.Join(root, key)
	return dir, os.MkdirAll(dir, 0o755)
}

// snapshot returns the path of a binary snapshot, generating it first if
// the cache lacks it.
func snapshot(dir, name string, gen func() (*worldgen.World, error)) (string, error) {
	path := filepath.Join(dir, name+".world")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	w, err := gen()
	if err != nil {
		return "", fmt.Errorf("generating %s: %w", name, err)
	}
	return path, w.WriteFile(path, worldgen.FormatBinary)
}

func metroSnapshot(dir string) (string, error) {
	return snapshot(dir, fmt.Sprintf("metro%d", metroSchools), func() (*worldgen.World, error) {
		return worldgen.GenerateParallel(worldgen.MetroConfig(metroSchools), worldSeed, runtime.NumCPU())
	})
}

// hs2Snapshot is the paper's HS2 world from the legacy generator, as the
// experiments command builds it.
func hs2Snapshot(dir string) (string, error) {
	return snapshot(dir, "hs2", func() (*worldgen.World, error) {
		return worldgen.Generate(worldgen.HS2Config(), worldSeed)
	})
}
