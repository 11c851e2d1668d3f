package serve

import (
	"encoding/json"
	"errors"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/model"
)

// Durability layer of the model registry: every artifact commit goes through
// model.WriteFileAtomic (temp + fsync + rename + dir fsync), a manifest
// records which versions were committed so "highest intact version wins" is
// an explicit, torn-write-proof contract, and startup quarantines corrupt
// artifacts instead of re-tripping over them on every boot.

// Failpoints at the serve layer's own effect boundaries.
var (
	fpFitPersist    = faultpoint.New("serve.fit.persist")
	fpRefitPersist  = faultpoint.New("serve.refit.persist")
	fpManifestWrite = faultpoint.New("serve.manifest.write")
)

// corruptSuffix marks a quarantined artifact. The file keeps its full
// original name ("m-000001.v2.zedm.corrupt"), so an operator can inspect or
// restore it; parseArtifactName no longer matches it, so later boots skip it
// without re-counting the corruption.
const corruptSuffix = ".corrupt"

// manifestFile is the registry's commit ledger inside the model directory.
const manifestFile = "manifest.json"

// manifest records the highest committed artifact version per model id. It
// is advisory-but-explicit: the atomic rename already guarantees every
// on-disk artifact is intact-or-absent, so recovery unions the manifest with
// a directory scan — the manifest's job is to make a missing or quarantined
// committed version loudly observable instead of silently serving an older
// one.
type manifest struct {
	Models map[string]int `json:"models"`
}

// loadManifest reads the ledger; absent means first boot (or a pre-manifest
// directory) and returns an empty manifest.
func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return &manifest{Models: map[string]int{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	if m.Models == nil {
		m.Models = map[string]int{}
	}
	return &m, nil
}

// writeManifest atomically rewrites the ledger from the registry's current
// state. A manifest write failure is soft: the registry stays correct (the
// artifacts themselves are the source of truth), so the failure is logged
// and counted, never propagated into the request that committed the
// artifact.
func (r *registry) writeManifest(met *metrics) {
	if r.dir == "" {
		return
	}
	r.mu.Lock()
	m := manifest{Models: make(map[string]int, len(r.models))}
	for id, e := range r.models {
		m.Models[id] = e.version
	}
	r.mu.Unlock()
	data, err := json.MarshalIndent(&m, "", "  ")
	if err == nil {
		err = fpManifestWrite.Eval()
	}
	if err == nil {
		err = model.WriteFileAtomic(filepath.Join(r.dir, manifestFile), append(data, '\n'))
	}
	if err != nil {
		r.log.Error("manifest write failed, registry unaffected", "dir", r.dir, "err", err)
		met.add(manifestWriteFailures, 1)
	}
}

// quarantine renames a corrupt artifact aside, once. Later boots skip the
// renamed file entirely — one corruption event is one log line and one
// counter increment, not one per restart.
func quarantine(path string, met *metrics, log *slog.Logger) {
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		log.Error("failed to quarantine corrupt artifact", "path", path, "err", err)
		return
	}
	log.Warn("quarantined corrupt artifact",
		"path", path, "renamed_to", filepath.Base(path)+corruptSuffix)
	met.add(modelsQuarantined, 1)
}

// sweepTmp removes stranded atomic-write temp files — debris of a crash
// mid-save, never a committed artifact.
func sweepTmp(dir string, entries []fs.DirEntry, log *slog.Logger) {
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), model.TmpSuffix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := os.Remove(path); err == nil {
			log.Warn("removed stranded temp file", "path", path)
		}
	}
}
