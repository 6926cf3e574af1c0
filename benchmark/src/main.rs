fn main() -> std::process::ExitCode {
    dtrack_benchmark::cli::main()
}
