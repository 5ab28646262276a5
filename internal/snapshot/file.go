package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a crash at any instant
// leaves either the old file or the new file, never a torn mix: the
// bytes land in a temp file in the same directory, are fsynced, renamed
// over path, and the directory is fsynced so the rename itself is
// durable.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Best-effort directory sync: some filesystems don't support it,
		// and the rename is already atomic without it.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Rotate shifts the keep-last-N chain before a new snapshot is written:
// path.(keep-2) → path.(keep-1), …, path.1 → path.2, path → path.1.
// With keep <= 1 there is nothing to rotate — the next WriteFileAtomic
// simply replaces path. Missing links in the chain are skipped.
func Rotate(path string, keep int) error {
	if keep <= 1 {
		return nil
	}
	for i := keep - 1; i >= 1; i-- {
		src := path
		if i > 1 {
			src = fmt.Sprintf("%s.%d", path, i-1)
		}
		if _, err := os.Stat(src); err != nil {
			continue
		}
		dst := fmt.Sprintf("%s.%d", path, i)
		if err := os.Rename(src, dst); err != nil {
			return fmt.Errorf("snapshot: rotate %s: %w", src, err)
		}
	}
	return nil
}
