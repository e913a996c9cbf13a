//! The sanctioned crash-safe file writer.
//!
//! Every durable artifact in the workspace funnels through
//! [`write_atomic`]: payload bytes land in a unique temp file in the target
//! directory, are fsynced, and are renamed over the final path, with the
//! directory fsynced afterwards. A reader can therefore never observe a
//! half-written file under the final name — after a `kill -9` the record is
//! either whole or absent (a stray `.tmp.*` is ignored by every reader and
//! harmless). Its `File::create` carries the one `#[expect]`: everywhere else
//! in the simulation crates, bare `std::fs::write` / `File::create` is a
//! clippy error (`clippy.toml`) precisely because it can tear.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process temp-name disambiguator: concurrent writers in one process
/// must not collide on the temp path (cross-process uniqueness comes from
/// the pid component).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replace `path` with `bytes` (temp file + fsync + rename +
/// directory fsync). Parent directories are created as needed. Concurrent
/// writers to the same path each complete their own temp/rename pass; the
/// last rename wins and the file is a whole record from exactly one writer
/// at every instant.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::create_dir_all(&parent)?;
    let base = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = parent.join(format!(
        "{base}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // Scoped so the handle is closed before the rename.
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "this is the atomic writer: the temp file is invisible under the final name until the rename"
        )]
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        // Leave no droppings on the failure path.
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the directory entry itself: rename durability needs the
    // parent fsynced, or a crash can forget the file existed at all.
    // Best-effort on filesystems that refuse directory handles.
    if let Ok(dir) = File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "store_atomic_{tag}_{}_{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn writes_land_whole_and_create_parents() {
        let root = tmp_root("whole");
        let path = root.join("aa/bb/record.rec");
        write_atomic(&path, b"payload").expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"payload");
        // Overwrite replaces, never appends.
        write_atomic(&path, b"v2").expect("rewrite");
        assert_eq!(fs::read(&path).expect("read"), b"v2");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn no_temp_droppings_after_success() {
        let root = tmp_root("clean");
        let path = root.join("r.rec");
        write_atomic(&path, b"x").expect("write");
        let names: Vec<String> = fs::read_dir(&root)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["r.rec".to_string()], "{names:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pathological_path_is_an_error_not_a_panic() {
        let e = write_atomic(Path::new("/"), b"x");
        assert!(e.is_err());
    }
}
