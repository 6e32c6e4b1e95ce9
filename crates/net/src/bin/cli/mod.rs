//! Flag parsing shared by the `tedb_serve` and `tedb_agents` binaries.

/// The value after `name` in `args`, parsed, or `default` when the
/// flag is absent; exits with status 2 on a missing or bad value.
pub fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == name) {
        Some(i) => match args.get(i + 1).map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(e)) => {
                eprintln!("bad value for {name}: {e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            }
        },
        None => default,
    }
}
