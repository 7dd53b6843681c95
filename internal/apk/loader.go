package apk

import (
	"archive/zip"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"time"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

// Load reads an app package from a file system: AndroidManifest.xml at the
// root, layouts under res/layout/, and .ir code files anywhere. The
// returned app's program contains the framework model, is linked, and has
// its resource constants resolved. The app's method bodies are declared,
// not parsed: each is parsed, resolved and linked on first use (see
// irtext.DeclareInto). A lexical or brace error in a body fails the load;
// a grammar error fails the first use of its body.
func Load(fsys fs.FS) (*App, error) {
	manifestText, err := readText(fsys, "AndroidManifest.xml")
	if err != nil {
		return nil, fmt.Errorf("apk: reading manifest: %w", err)
	}
	manifest, err := parseManifest(strings.NewReader(manifestText))
	if err != nil {
		return nil, err
	}

	app := &App{
		Package:  manifest.Package,
		Manifest: manifest,
		Layouts:  make(map[string]*Layout),
	}

	var irFiles []string
	var layoutFiles []string
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		switch {
		case strings.HasSuffix(p, ".ir"):
			irFiles = append(irFiles, p)
		case strings.HasPrefix(p, "res/layout/") && strings.HasSuffix(p, ".xml"):
			layoutFiles = append(layoutFiles, p)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("apk: scanning package: %w", err)
	}
	sort.Strings(irFiles)
	sort.Strings(layoutFiles)

	for _, p := range layoutFiles {
		text, err := readText(fsys, p)
		if err != nil {
			return nil, fmt.Errorf("apk: reading %s: %w", p, err)
		}
		name := strings.TrimSuffix(path.Base(p), ".xml")
		l, err := ParseLayout(name, strings.NewReader(text))
		if err != nil {
			return nil, err
		}
		app.Layouts[name] = l
	}

	prog := framework.NewProgram()
	for _, p := range irFiles {
		text, err := readText(fsys, p)
		if err != nil {
			return nil, fmt.Errorf("apk: reading %s: %w", p, err)
		}
		if err := irtext.DeclareInto(prog, text, p); err != nil {
			return nil, err
		}
	}
	app.Program = prog

	// Build the resource table from the declared layouts and ids, plus
	// the ids referenced only from code (apps may call findViewById on
	// programmatically created controls).
	var layouts, ids []string
	for name, l := range app.Layouts {
		layouts = append(layouts, name)
		for _, c := range l.Controls {
			if c.ID != "" {
				ids = append(ids, c.ID)
			}
		}
	}
	for _, name := range collectResRefs(prog) {
		if rest, ok := strings.CutPrefix(name, "id/"); ok {
			ids = append(ids, rest)
		}
	}
	app.Res = NewResTable(ids, layouts)

	if err := prog.Link(); err != nil {
		return nil, fmt.Errorf("apk: linking %s: %w", app.Package, err)
	}
	if err := app.Res.ResolveConstants(prog); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// readText returns the contents of the named file. A memFS file is its
// string as is; other sources are read and copied once.
func readText(fsys fs.FS, name string) (string, error) {
	if m, ok := fsys.(memFS); ok {
		if text, ok := m[name]; ok {
			return text, nil
		}
	}
	data, err := fs.ReadFile(fsys, name)
	return string(data), err
}

// collectResRefs gathers all symbolic resource names the app's code
// references, from the load-time scan of its method bodies.
func collectResRefs(prog *ir.Program) []string {
	seen := make(map[string]bool)
	for _, m := range prog.PendingMethods() {
		facts, _ := m.Facts()
		for _, name := range facts.Resources {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadDir loads an app package from a directory.
func LoadDir(dir string) (*App, error) {
	return Load(os.DirFS(dir))
}

// LoadZip loads an app package from a zip archive (the closest analogue
// of a real .apk file).
func LoadZip(zipPath string) (*App, error) {
	r, err := zip.OpenReader(zipPath)
	if err != nil {
		return nil, fmt.Errorf("apk: opening %s: %w", zipPath, err)
	}
	defer r.Close()
	return Load(r)
}

// LoadFiles loads an app package from an in-memory file map (path →
// contents). The benchmark suites embed their apps this way.
func LoadFiles(files map[string]string) (*App, error) {
	return Load(memFS(files))
}

// memFS is a minimal read-only fs.FS over a map, sufficient for Load's
// ReadFile and WalkDir usage.
type memFS map[string]string

func (m memFS) Open(name string) (fs.File, error) {
	if name == "." {
		return &memDir{fs: m, name: "."}, nil
	}
	if data, ok := m[name]; ok {
		return &memFile{name: name, data: data}, nil
	}
	// Directory?
	prefix := name + "/"
	for p := range m {
		if strings.HasPrefix(p, prefix) {
			return &memDir{fs: m, name: name}, nil
		}
	}
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}

type memFile struct {
	name string
	data string
	off  int
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	return memInfo{name: path.Base(f.name), size: len(f.data)}, nil
}
func (f *memFile) Close() error { return nil }

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

type memDir struct {
	fs      memFS
	name    string
	entries []fs.DirEntry
	off     int
}

func (d *memDir) Stat() (fs.FileInfo, error) {
	return memInfo{name: path.Base(d.name), dir: true}, nil
}
func (d *memDir) Close() error             { return nil }
func (d *memDir) Read([]byte) (int, error) { return 0, fmt.Errorf("is a directory") }

func (d *memDir) ReadDir(n int) ([]fs.DirEntry, error) {
	if d.entries == nil {
		seen := make(map[string]bool)
		prefix := ""
		if d.name != "." {
			prefix = d.name + "/"
		}
		var names []string
		for p := range d.fs {
			if !strings.HasPrefix(p, prefix) {
				continue
			}
			rest := strings.TrimPrefix(p, prefix)
			head, _, _ := strings.Cut(rest, "/")
			if seen[head] {
				continue
			}
			seen[head] = true
			names = append(names, head)
		}
		sort.Strings(names)
		for _, name := range names {
			full := name
			if prefix != "" {
				full = prefix + name
			}
			_, isFile := d.fs[full]
			d.entries = append(d.entries, memEntry{name: name, dir: !isFile})
		}
	}
	if n <= 0 {
		out := d.entries[d.off:]
		d.off = len(d.entries)
		return out, nil
	}
	if d.off >= len(d.entries) {
		return nil, io.EOF
	}
	end := d.off + n
	if end > len(d.entries) {
		end = len(d.entries)
	}
	out := d.entries[d.off:end]
	d.off = end
	return out, nil
}

type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string { return e.name }
func (e memEntry) IsDir() bool  { return e.dir }
func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memEntry) Info() (fs.FileInfo, error) { return memInfo{name: e.name, dir: e.dir}, nil }

type memInfo struct {
	name string
	size int
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return int64(i.size) }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o555
	}
	return 0o444
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
