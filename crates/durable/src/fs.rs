//! The one seam between this crate and a file system.
//!
//! [`Fs`] holds the operations the crate performs and no others. [`StdFs`]
//! makes the `std::fs` call each stands for: the same syscalls in the same
//! order, with no buffer in between. [`SimFs`] keeps files in memory and
//! can damage them as a crash would; a clone is a crash image. A
//! [`DataDir`] is a directory on one of them; a plain path converts to
//! one on the real disk.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// An open file, read and written at its cursor.
pub trait FsFile: Read + Write + Send + Debug {
    /// Cuts or extends the file to `len` bytes (an extension reads as zeros).
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Makes the file's bytes durable (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Makes the file's bytes and metadata durable (`fsync`).
    fn sync_all(&self) -> io::Result<()>;
    /// The file's length in bytes.
    fn size(&self) -> io::Result<u64>;
}

/// The file-system operations of this crate.
pub trait Fs: Send + Sync + Debug {
    /// Creates `dir` and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The paths of the entries of `dir`, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// The whole of the file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates the file at `path`, or truncates it, for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>>;
    /// Opens the file at `path` for writing, or else for reading.
    fn open(&self, path: &Path, write: bool) -> io::Result<Box<dyn FsFile>>;
    /// Renames `from` to `to`, replacing any file there.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Makes the creates, renames and removes in `dir` durable.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// A shard directory and the file system it is on.
#[derive(Clone, Debug)]
pub struct DataDir {
    fs: Arc<dyn Fs>,
    path: PathBuf,
}

impl DataDir {
    /// The directory `path` on `fs`.
    pub fn new(fs: Arc<dyn Fs>, path: impl Into<PathBuf>) -> DataDir {
        let path = path.into();
        DataDir { fs, path }
    }

    /// The file system the directory is on.
    pub fn fs(&self) -> &dyn Fs {
        &*self.fs
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory's files named `<prefix><number><suffix>`, with their
    /// numbers, ascending.
    pub(crate) fn numbered(&self, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        for path in self.fs.list(&self.path)? {
            let name = path.file_name().and_then(|name| name.to_str());
            let stem = name.and_then(|name| name.strip_prefix(prefix)?.strip_suffix(suffix));
            if let Some(n) = stem.and_then(|stem| stem.parse().ok()) {
                found.push((n, path));
            }
        }
        found.sort_by_key(|&(n, _)| n);
        Ok(found)
    }
}

impl<P: AsRef<Path> + ?Sized> From<&P> for DataDir {
    /// The directory `path` on the real disk.
    fn from(path: &P) -> DataDir {
        DataDir::new(Arc::new(StdFs), path.as_ref())
    }
}

impl From<&DataDir> for DataDir {
    fn from(dir: &DataDir) -> DataDir {
        dir.clone()
    }
}

/// The real disk, through `std::fs`.
#[derive(Clone, Copy, Debug)]
pub struct StdFs;

impl FsFile for std::fs::File {
    fn set_len(&self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
    fn sync_data(&self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
    fn sync_all(&self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl Fs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(dir)?
            .map(|entry| Ok(entry?.path()))
            .collect()
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }
    fn open(&self, path: &Path, write: bool) -> io::Result<Box<dyn FsFile>> {
        let file = std::fs::OpenOptions::new()
            .read(!write)
            .write(write)
            .open(path)?;
        Ok(Box::new(file))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Only Unix syncs a directory, by opening it.
        if cfg!(unix) {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

/// A [`SimFs`] file: `len` bytes, those past `data` zero (a pre-sized
/// file costs no memory), of which the first `synced` are durable.
#[derive(Clone, Debug, Default)]
struct SimFile {
    data: Vec<u8>,
    len: u64,
    synced: u64,
}

impl SimFile {
    fn set_len(&mut self, len: u64) {
        self.data.truncate(len as usize);
        self.len = len;
        self.synced = self.synced.min(len);
    }
}

/// A file apart from its name: what a handle holds.
type Inode = Arc<Mutex<SimFile>>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a SimFs lock poisoned by a panic")
}

/// A file system in memory: a map from path to file, with no directories
/// (every parent exists, and a directory's fsync does nothing). An open
/// handle follows its file through a rename or a removal. A clone shares
/// no file with the original.
#[derive(Debug, Default)]
pub struct SimFs {
    files: Mutex<BTreeMap<PathBuf, Inode>>,
}

impl Clone for SimFs {
    fn clone(&self) -> SimFs {
        let copy = |(path, file): (&PathBuf, &Inode)| {
            (path.clone(), Arc::new(Mutex::new(lock(file).clone())))
        };
        let files = lock(&self.files).iter().map(copy).collect();
        SimFs {
            files: Mutex::new(files),
        }
    }
}

impl SimFs {
    fn inode(&self, path: &Path) -> io::Result<Inode> {
        let inode = lock(&self.files).get(path).cloned();
        inode.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))
    }

    fn edit<T>(&self, path: &Path, f: impl FnOnce(&mut SimFile) -> T) -> io::Result<T> {
        Ok(f(&mut lock(&*self.inode(path)?)))
    }

    /// How many of the file's first bytes are durable: none from a write
    /// on that no `sync_data` or `sync_all` followed.
    pub fn synced_len(&self, path: &Path) -> io::Result<u64> {
        self.edit(path, |file| file.synced)
    }

    /// Cuts or extends the file to `len` bytes.
    pub fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.edit(path, |file| file.set_len(len))
    }

    /// Zeroes every byte from `offset` on and keeps the length: what a
    /// crash leaves of a pre-sized file whose writes past `offset` never
    /// reached the disk.
    pub fn zero_from(&self, path: &Path, offset: u64) -> io::Result<()> {
        self.edit(path, |file| file.data.truncate(offset as usize))
    }

    /// XORs the byte `offset_from_end` bytes before the end with `0xFF`
    /// (1 = the last byte).
    pub fn flip_byte(&self, path: &Path, offset_from_end: u64) -> io::Result<()> {
        let flipped = self.edit(path, |file| {
            let at = file
                .len
                .checked_sub(offset_from_end)
                .filter(|&at| at < file.len)? as usize;
            file.data.resize(file.data.len().max(at + 1), 0);
            file.data[at] ^= 0xFF;
            Some(())
        })?;
        flipped.ok_or_else(|| io::Error::from(io::ErrorKind::InvalidInput))
    }
}

impl Fs for SimFs {
    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let files = lock(&self.files);
        let in_dir = files.keys().filter(|path| path.parent() == Some(dir));
        Ok(in_dir.cloned().collect())
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.open(path, false)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let inode = Arc::clone(lock(&self.files).entry(path.into()).or_default());
        lock(&*inode).set_len(0);
        Ok(Box::new(SimHandle { inode, at: 0 }))
    }
    fn open(&self, path: &Path, _: bool) -> io::Result<Box<dyn FsFile>> {
        let inode = self.inode(path)?;
        Ok(Box::new(SimHandle { inode, at: 0 }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let inode = self.inode(from)?;
        let mut files = lock(&self.files);
        files.remove(from);
        files.insert(to.into(), inode);
        Ok(())
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inode(path)?;
        lock(&self.files).remove(path);
        Ok(())
    }
    fn fsync_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// An open [`SimFs`] file and its cursor.
#[derive(Debug)]
struct SimHandle {
    inode: Inode,
    at: u64,
}

impl Read for SimHandle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let file = lock(&*self.inode);
        let n = file.len.saturating_sub(self.at).min(buf.len() as u64) as usize;
        let data = file.data.get(self.at as usize..).unwrap_or_default();
        let stored = data.len().min(n);
        buf[..stored].copy_from_slice(&data[..stored]);
        buf[stored..n].fill(0);
        self.at += n as u64;
        Ok(n)
    }
}

impl Write for SimHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut file = lock(&*self.inode);
        let (at, end) = (self.at as usize, self.at as usize + buf.len());
        if file.data.len() < end {
            file.data.resize(end, 0);
        }
        file.data[at..end].copy_from_slice(buf);
        file.len = file.len.max(end as u64);
        file.synced = file.synced.min(self.at);
        self.at = end as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl FsFile for SimHandle {
    fn set_len(&self, len: u64) -> io::Result<()> {
        lock(&*self.inode).set_len(len);
        Ok(())
    }
    fn sync_data(&self) -> io::Result<()> {
        let mut file = lock(&*self.inode);
        file.synced = file.len;
        Ok(())
    }
    fn sync_all(&self) -> io::Result<()> {
        self.sync_data()
    }
    fn size(&self) -> io::Result<u64> {
        Ok(lock(&*self.inode).len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_fs_editing_operations_damage_a_file() {
        let fs = SimFs::default();
        let path = Path::new("d/victim");
        let write = |bytes: &[u8]| fs.create(path).unwrap().write_all(bytes).unwrap();
        write(b"hello world");
        fs.set_len(path, 5).unwrap();
        assert_eq!(fs.read(path).unwrap(), b"hello");
        fs.flip_byte(path, 1).unwrap();
        assert_eq!(fs.read(path).unwrap(), b"hell\x90"); // 'o' ^ 0xFF
        assert!(fs.flip_byte(path, 99).is_err());
        assert!(fs.flip_byte(path, 0).is_err());
        write(b"hello world");
        fs.zero_from(path, 4).unwrap();
        assert_eq!(fs.read(path).unwrap(), b"hell\0\0\0\0\0\0\0");
        fs.zero_from(path, 99).unwrap();
        assert_eq!(fs.read(path).unwrap().len(), 11, "nothing past the end");
        fs.set_len(path, 0).unwrap();
        assert_eq!(fs.read(path).unwrap(), b"");
        assert!(fs.set_len(Path::new("d/missing"), 1).is_err());
    }

    #[test]
    fn sim_fs_reports_a_write_unsynced_until_it_is_synced() {
        let fs = SimFs::default();
        let path = Path::new("d/segment");
        let mut file = fs.create(path).unwrap();
        file.set_len(4096).unwrap();
        file.write_all(b"record").unwrap();
        assert_eq!(fs.synced_len(path).unwrap(), 0, "written, not synced");
        file.sync_data().unwrap();
        assert_eq!(fs.synced_len(path).unwrap(), 4096);
        file.write_all(b"next").unwrap();
        assert_eq!(fs.synced_len(path).unwrap(), 6, "synced up to the write");
        file.sync_all().unwrap();
        assert_eq!(fs.synced_len(path).unwrap(), file.size().unwrap());
        assert_eq!(&fs.read(path).unwrap()[..12], b"recordnext\0\0");
    }

    #[test]
    fn a_sim_fs_clone_is_independent_of_the_original() {
        let fs = SimFs::default();
        let (kept, moved) = (Path::new("d/kept"), Path::new("d/moved"));
        let mut file = fs.create(kept).unwrap();
        file.write_all(b"before").unwrap();
        fs.create(moved).unwrap().write_all(b"x").unwrap();
        let image = fs.clone();
        file.write_all(b" after").unwrap();
        fs.flip_byte(kept, 1).unwrap();
        fs.rename(moved, Path::new("d/renamed")).unwrap();
        assert_eq!(image.read(kept).unwrap(), b"before");
        assert_eq!(image.list(Path::new("d")).unwrap(), [kept, moved]);
        image.zero_from(kept, 0).unwrap();
        assert_eq!(fs.read(kept).unwrap(), b"before afte\x8d"); // 'r' ^ 0xFF
        assert!(fs.read(moved).is_err());
    }
}
